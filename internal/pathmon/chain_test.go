package pathmon

// Synthetic-series tests for two-hop chain enumeration, pruning, and
// ranking — the same harness as pathmon_test.go: no sockets, integrate()
// fed directly, a hand-cranked clock.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/relay"
)

// chainSet snapshots the monitor's current chain candidates.
func chainSet(m *Monitor) map[Route]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Route]bool, len(m.chains))
	for _, c := range m.chains {
		out[c] = true
	}
	return out
}

func TestChainEnumerationTopM(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	c := MakeRoute("relay-c:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:           []string{a.First(), b.First(), c.First()},
		Alpha:           1,
		MaxHops:         2,
		ChainCandidates: 2,
	})
	now := time.Unix(1000, 0)

	// One good round: A and B are the top-2 singles, C trails badly.
	round(m, now, map[Route]time.Duration{
		Direct: 50 * time.Millisecond,
		a:      40 * time.Millisecond,
		b:      45 * time.Millisecond,
		c:      200 * time.Millisecond,
	})

	chains := chainSet(m)
	want := []Route{MakeRoute(a.First(), b.First()), MakeRoute(b.First(), a.First())}
	if len(chains) != len(want) {
		t.Fatalf("chains = %v, want exactly %v", chains, want)
	}
	for _, w := range want {
		if !chains[w] {
			t.Errorf("chain %v missing from candidate set %v", w, chains)
		}
	}
	// The candidates appear in the ranked table as probeable paths.
	kinds := map[string]int{}
	for _, st := range m.Ranked() {
		kinds[st.Route.Kind()]++
	}
	if kinds["chain"] != 2 {
		t.Errorf("ranked table has %d chain rows, want 2", kinds["chain"])
	}
}

func TestChainEnumerationOffByDefault(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	m, _ := synthMonitor(t, Config{Fleet: []string{a.First(), b.First()}, Alpha: 1})
	round(m, time.Unix(1000, 0), map[Route]time.Duration{
		Direct: 50 * time.Millisecond,
		a:      10 * time.Millisecond,
		b:      10 * time.Millisecond,
	})
	if chains := chainSet(m); len(chains) != 0 {
		t.Fatalf("MaxHops 1 enumerated chains: %v", chains)
	}
}

func TestChainPruningDropsHopelessPairs(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:            []string{a.First(), b.First()},
		Alpha:            1,
		MaxHops:          2,
		ChainPruneFactor: 1, // tight: no slack for triangle violations
	})
	// Direct is fast; each relay leg alone costs 100 ms, so any pair's
	// summed srtt (200 ms) is far beyond 1x the best score.
	round(m, time.Unix(1000, 0), map[Route]time.Duration{
		Direct: 10 * time.Millisecond,
		a:      100 * time.Millisecond,
		b:      100 * time.Millisecond,
	})
	if chains := chainSet(m); len(chains) != 0 {
		t.Fatalf("hopeless chains not pruned: %v", chains)
	}
}

func TestChainCanBecomeBestViaHysteresis(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	ab := MakeRoute(a.First(), b.First())
	m, reg := synthMonitor(t, Config{
		Fleet:        []string{a.First(), b.First()},
		Alpha:        1,
		MaxHops:      2,
		SwitchRounds: 2,
	})
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }

	// Round 1: singles only; direct becomes the incumbent and chains are
	// enumerated for the next round.
	base := map[Route]time.Duration{
		Direct: 100 * time.Millisecond,
		a:      110 * time.Millisecond,
		b:      110 * time.Millisecond,
	}
	round(m, tick(), base)
	if best, _ := m.Best(); best != Direct {
		t.Fatalf("initial best = %v, want direct", best)
	}
	if !chainSet(m)[ab] {
		t.Fatalf("chain %v not enumerated after round 1 (chains: %v)", ab, chainSet(m))
	}

	// The chain routes around congestion both access legs share with the
	// direct path (the CRONets win): it probes far faster than anything
	// else, and after SwitchRounds qualifying rounds it takes traffic.
	for i := 0; i < 6; i++ {
		rtts := map[Route]time.Duration{ab: 20 * time.Millisecond}
		for p, d := range base {
			rtts[p] = d
		}
		round(m, tick(), rtts)
	}
	if best, _ := m.Best(); best != ab {
		t.Fatalf("best = %v after a sustained chain lead, want %v", best, ab)
	}
	if n := switches(reg); n != 1 {
		t.Errorf("switches = %d, want exactly 1", n)
	}
}

func TestChainIncumbentSurvivesCandidacyLoss(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	ab := MakeRoute(a.First(), b.First())
	m, _ := synthMonitor(t, Config{
		Fleet:        []string{a.First(), b.First()},
		Alpha:        1,
		MaxHops:      2,
		SwitchRounds: 2,
	})
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }

	base := map[Route]time.Duration{
		Direct: 100 * time.Millisecond,
		a:      110 * time.Millisecond,
		b:      110 * time.Millisecond,
	}
	round(m, tick(), base)
	for i := 0; i < 4; i++ {
		rtts := map[Route]time.Duration{ab: 20 * time.Millisecond}
		for p, d := range base {
			rtts[p] = d
		}
		round(m, tick(), rtts)
	}
	if best, _ := m.Best(); best != ab {
		t.Fatalf("best = %v, want chain %v", best, ab)
	}

	// Both singles' probes start failing (their access probes time out)
	// while the established chain keeps answering — single-hop candidacy
	// collapses, but the incumbent chain must stay probed and stay best,
	// not vanish through enumeration churn.
	for i := 0; i < 4; i++ {
		round(m, tick(), map[Route]time.Duration{
			Direct: 100 * time.Millisecond,
			a:      -1,
			b:      -1,
			ab:     20 * time.Millisecond,
		})
	}
	if !chainSet(m)[ab] {
		t.Fatalf("incumbent chain dropped from the probe set (chains: %v)", chainSet(m))
	}
	if best, _ := m.Best(); best != ab {
		t.Fatalf("best = %v after single-hop candidacy loss, want %v", best, ab)
	}
}

func TestProbeFailureReasonSplit(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{Fleet: []string{a.First()}, Alpha: 1})
	now := time.Unix(1000, 0)
	m.integrate([]probeResult{
		{route: a, err: fmt.Errorf("dial: %w", relay.ErrRefused)},
	}, now)
	m.integrate([]probeResult{
		{route: a, err: fmt.Errorf("probe: %w", errTimeout{})},
	}, now.Add(time.Second))
	m.integrate([]probeResult{
		{route: a, err: errors.New("dial: connection refused")},
	}, now.Add(2*time.Second))

	for reason, want := range map[string]int64{"reject": 1, "timeout": 1, "dial": 1} {
		got := reg.Counter(obs.Label("cronets_pathmon_probe_failures_total", "reason", reason), "").Value()
		if got != want {
			t.Errorf("failures{reason=%q} = %d, want %d", reason, got, want)
		}
	}
}

// errTimeout satisfies net.Error with Timeout() true.
type errTimeout struct{}

func (errTimeout) Error() string   { return "i/o timeout" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }
