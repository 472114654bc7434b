package pathmon

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"cronets/internal/measure"
	"cronets/internal/obs"
	"cronets/internal/relay"
)

// synthMonitor builds a Monitor for synthetic-series tests: no sockets,
// a hand-cranked clock, Alpha=1 (estimate = last sample) unless the test
// overrides, and an obs registry so switch counts are assertable.
func synthMonitor(t *testing.T, cfg Config) (*Monitor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Dest = "192.0.2.1:9"
	cfg.Obs = reg
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func switches(reg *obs.Registry) int64 {
	return reg.Counter("cronets_pathmon_switches_total", "").Value()
}

// round feeds one synthetic probe round. rtts maps path -> RTT; a
// negative RTT means the probe failed; absent paths are not probed.
func round(m *Monitor, now time.Time, rtts map[Route]time.Duration) {
	var results []probeResult
	for p, rtt := range rtts {
		if rtt < 0 {
			results = append(results, probeResult{route: p, err: context.DeadlineExceeded})
		} else {
			results = append(results, probeResult{route: p, rtt: rtt})
		}
	}
	m.integrate(results, now)
}

func TestHysteresisNoFlapAtMarginBoundary(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:        []string{relayA.First()},
		Alpha:        1,
		SwitchMargin: 0.1,
		SwitchRounds: 2,
	})
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }

	// Two warm-up rounds make direct the incumbent.
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 120 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 120 * time.Millisecond})
	if best, ok := m.Best(); !ok || best != Direct {
		t.Fatalf("initial best = %v (%v), want direct", best, ok)
	}
	if n := switches(reg); n != 0 {
		t.Fatalf("initial selection counted as %d switch(es)", n)
	}

	// The relay now leads, but inside the 10%% margin (91 vs 100): the
	// monitor must hold the incumbent no matter how long this persists.
	for i := 0; i < 25; i++ {
		round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 91 * time.Millisecond})
	}
	if best, _ := m.Best(); best != Direct {
		t.Fatalf("flapped to %v on a within-margin lead", best)
	}
	if n := switches(reg); n != 0 {
		t.Fatalf("switches = %d, want 0 inside the margin", n)
	}

	// Beat the margin for one round short of SwitchRounds, then regress:
	// still no switch. (With Alpha=1 the first round at a new value
	// carries a variance spike, so the streak only starts on the second
	// consecutive 70 ms round — one short of K=2 — before 95 ms resets it.)
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 70 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 70 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 95 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 95 * time.Millisecond})
	if n := switches(reg); n != 0 {
		t.Fatalf("switched after a below-K streak (switches = %d)", n)
	}
	if best, _ := m.Best(); best != Direct {
		t.Fatalf("best = %v after a below-K streak, want direct", best)
	}

	// Beat the margin for K consecutive rounds: exactly one switch.
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 70 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 70 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 100 * time.Millisecond, relayA: 70 * time.Millisecond})
	if best, _ := m.Best(); best != relayA {
		t.Fatalf("best = %v after a sustained margin beat, want %v", best, relayA)
	}
	if n := switches(reg); n != 1 {
		t.Fatalf("switches = %d, want exactly 1", n)
	}
}

func TestHysteresisBoundedConvergenceAfterStep(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:        []string{relayA.First()},
		Alpha:        0.3,
		SwitchMargin: 0.1,
		SwitchRounds: 3,
	})
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }

	// Steady state: direct clearly best.
	for i := 0; i < 5; i++ {
		round(m, tick(), map[Route]time.Duration{Direct: 20 * time.Millisecond, relayA: 50 * time.Millisecond})
	}
	if best, _ := m.Best(); best != Direct {
		t.Fatalf("steady-state best = %v, want direct", best)
	}

	// Step change: the direct path degrades 10x. The EWMA must converge
	// and hysteresis clear within a bounded number of rounds.
	const maxRounds = 10
	switched := -1
	for i := 1; i <= maxRounds; i++ {
		round(m, tick(), map[Route]time.Duration{Direct: 200 * time.Millisecond, relayA: 50 * time.Millisecond})
		if best, _ := m.Best(); best == relayA {
			switched = i
			break
		}
	}
	if switched < 0 {
		t.Fatalf("no switch within %d rounds of a 10x step degradation", maxRounds)
	}
	// K=3 rounds of streak are mandatory; EWMA lag may add a few more.
	if switched < 3 {
		t.Fatalf("switched after %d rounds, inside the K=3 hysteresis window", switched)
	}
	if n := switches(reg); n != 1 {
		t.Fatalf("switches = %d, want 1", n)
	}
}

func TestIncumbentDownSwitchesImmediately(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		SwitchRounds:  5, // hysteresis must NOT delay a dead-incumbent switch
		FailThreshold: 2,
	})
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }

	round(m, tick(), map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond})
	if best, _ := m.Best(); best != Direct {
		t.Fatalf("best = %v, want direct", best)
	}

	// Two consecutive probe failures hit FailThreshold: immediate switch.
	round(m, tick(), map[Route]time.Duration{Direct: -1, relayA: 40 * time.Millisecond})
	round(m, tick(), map[Route]time.Duration{Direct: -1, relayA: 40 * time.Millisecond})
	if best, _ := m.Best(); best != relayA {
		t.Fatalf("best = %v after incumbent died, want %v", best, relayA)
	}
	if n := switches(reg); n != 1 {
		t.Fatalf("switches = %d, want 1", n)
	}

	// One success brings the direct path back into contention, but it
	// must re-earn the lead through hysteresis, not snap back.
	round(m, tick(), map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond})
	if best, _ := m.Best(); best != relayA {
		t.Fatalf("snapped back to %v without hysteresis", best)
	}
}

func TestStalenessInflatesScore(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:      []string{relayA.First()},
		Alpha:      1,
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
	})
	now := time.Unix(1000, 0)

	// Relay measured once, slightly better than direct; then only the
	// direct path keeps answering.
	round(m, now, map[Route]time.Duration{Direct: 50 * time.Millisecond, relayA: 40 * time.Millisecond})
	for i := 1; i <= 30; i++ {
		round(m, now.Add(time.Duration(i)*time.Second), map[Route]time.Duration{Direct: 50 * time.Millisecond})
	}
	m.now = func() time.Time { return now.Add(30 * time.Second) }
	ranked := m.Ranked()
	if ranked[0].Route != Direct {
		t.Fatalf("fresh path ranked %v; stale relay still leads: %+v", ranked[0].Route, ranked)
	}
	if ranked[1].Route != relayA || ranked[1].Score <= ranked[0].Score {
		t.Fatalf("stale relay score did not inflate: %+v", ranked)
	}
}

func TestRankedMarksDownPaths(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, _ := synthMonitor(t, Config{Fleet: []string{relayA.First()}, Alpha: 1, FailThreshold: 2})
	now := time.Unix(1000, 0)
	round(m, now, map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: -1})
	round(m, now.Add(time.Second), map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: -1})
	m.now = func() time.Time { return now.Add(time.Second) }
	ranked := m.Ranked()
	if ranked[0].Route != Direct || ranked[0].Down {
		t.Fatalf("direct should rank first and be up: %+v", ranked)
	}
	if !ranked[1].Down || !math.IsInf(ranked[1].Score, 1) {
		t.Fatalf("failed relay should be down with +Inf score: %+v", ranked[1])
	}
}

// TestLiveProbing exercises the real socket path: a measure server, one
// live relay, one dead relay. The round must complete despite the dead
// relay and produce estimates for both usable paths.
func TestLiveProbing(t *testing.T) {
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := measure.NewServer(srvLn)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := relay.New(relayLn, relay.Config{})
	go func() { _ = rl.Serve() }()
	defer rl.Close()

	deadAddr := "127.0.0.1:1"
	reg := obs.NewRegistry()
	m, err := New(Config{
		Dest:         srvLn.Addr().String(),
		Fleet:        []string{relayLn.Addr().String(), deadAddr},
		Interval:     time.Second,
		ProbeTimeout: 2 * time.Second,
		ProbeCount:   3,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	m.ProbeRound(context.Background())
	m.ProbeRound(context.Background())
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("2 probe rounds took %v; a dead relay stalled the round", elapsed)
	}

	if _, ok := m.Best(); !ok {
		t.Fatal("no best path selected after live rounds")
	}
	var sawDirect, sawRelay, sawDead bool
	for _, st := range m.Ranked() {
		switch {
		case st.Route == Direct:
			sawDirect = st.Samples > 0 && !st.Down
		case st.Route.First() == deadAddr:
			sawDead = st.Down
		default:
			sawRelay = st.Samples > 0 && !st.Down
		}
	}
	if !sawDirect || !sawRelay || !sawDead {
		t.Fatalf("ranked table wrong: direct up=%v relay up=%v dead down=%v\n%+v",
			sawDirect, sawRelay, sawDead, m.Ranked())
	}
	var failures int64
	for _, reason := range []string{"dial", "reject", "timeout"} {
		failures += reg.Counter(obs.Label("cronets_pathmon_probe_failures_total", "reason", reason), "").Value()
	}
	if failures == 0 {
		t.Fatal("dead relay produced no probe failures")
	}
}

// TestSubscribeNotifiesOnRoundsAndPin: subscribers get a coalesced wakeup
// after every integrated round and every Pin, and none after
// unsubscribing.
func TestSubscribeNotifiesOnRoundsAndPin(t *testing.T) {
	m, _ := synthMonitor(t, Config{Fleet: []string{"r1:1"}})
	ch, unsub := m.Subscribe()
	now := time.Unix(0, 0)

	drain := func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	round(m, now, map[Route]time.Duration{Direct: 10 * time.Millisecond})
	if !drain() {
		t.Fatal("no notification after an integrated round")
	}
	if drain() {
		t.Fatal("more than one buffered notification (channel must coalesce)")
	}

	// Two quick rounds coalesce into at least one wakeup.
	round(m, now.Add(time.Second), map[Route]time.Duration{Direct: 10 * time.Millisecond})
	round(m, now.Add(2*time.Second), map[Route]time.Duration{Direct: 10 * time.Millisecond})
	if !drain() {
		t.Fatal("no notification after two rounds")
	}

	for drain() {
	}
	m.Pin(MakeRoute("r1:1"))
	if !drain() {
		t.Fatal("no notification after Pin")
	}

	unsub()
	round(m, now.Add(3*time.Second), map[Route]time.Duration{Direct: 10 * time.Millisecond})
	if drain() {
		t.Fatal("notification delivered after unsubscribe")
	}
}

// TestNewChecksFleet: New accepts a fleet of distinct host:port entries,
// each becoming one probed route, and rejects an entry that is not
// host:port, contains the route-key separator, or repeats an earlier entry.
func TestNewChecksFleet(t *testing.T) {
	tests := []struct {
		name    string
		fleet   []string
		wantErr string // "" = accepted
	}{
		{"none", nil, ""},
		{"distinct", []string{"r1:9000", "r2:9000", "r1:9001", "[::1]:9000", ":9000"}, ""},
		{"duplicate", []string{"r1:9000", "r2:9000", "r1:9000"}, `pathmon: fleet entry "r1:9000" repeats an earlier entry`},
		{"empty", []string{"r1:9000", ""}, `pathmon: fleet entry "": missing port in address`},
		{"no port", []string{"r1"}, `pathmon: fleet entry "r1": address r1: missing port in address`},
		{"separator", []string{"r1\x1fr2:9000"}, `pathmon: fleet entry "r1\x1fr2:9000" contains the route-key separator 0x1f`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(Config{Dest: "192.0.2.1:9", Fleet: tt.fleet})
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("New error = %v, want %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer m.Close()
			if got, want := len(m.order), 1+len(tt.fleet); got != want {
				t.Errorf("probe set has %d routes, want %d (direct + one per entry)", got, want)
			}
		})
	}
}
