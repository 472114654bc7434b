package pathmon

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"cronets/internal/measure"
)

// feedRound feeds one synthetic probe round with optional burst results.
// rtts maps route -> RTT (negative = probe failure); bursts maps route ->
// Mbps (negative = burst failure). Bursts on failed-RTT routes are
// dropped, mirroring probeRoute (a burst only runs after its RTT probes
// succeed).
func feedRound(m *Monitor, now time.Time, rtts map[Route]time.Duration, bursts map[Route]float64) {
	var results []probeResult
	for p, rtt := range rtts {
		r := probeResult{route: p}
		if rtt < 0 {
			r.err = context.DeadlineExceeded
		} else {
			r.rtt = rtt
			if mbps, ok := bursts[p]; ok {
				r.burst = true
				if mbps < 0 {
					r.burstErr = measure.ErrTruncatedBurst
				} else {
					r.mbps = mbps
				}
			}
		}
		results = append(results, r)
	}
	m.integrate(results, now)
}

func TestObjectiveParseRoundTrip(t *testing.T) {
	for _, obj := range []Objective{ObjectiveLatency, ObjectiveThroughput, ObjectiveComposite} {
		got, err := ParseObjective(obj.String())
		if err != nil || got != obj {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", obj.String(), got, err, obj)
		}
	}
	if _, err := ParseObjective("bandwidth"); err == nil {
		t.Error("ParseObjective accepted an unknown name")
	}
	if def := *new(Objective); def != ObjectiveLatency {
		t.Errorf("zero-value objective = %v, want latency", def)
	}
}

func TestObjectiveScoresTable(t *testing.T) {
	a, b, c := MakeRoute("a:1"), MakeRoute("b:1"), MakeRoute("c:1")
	// Score carries the latency metric (seconds) on entry, as rankForLocked
	// builds it.
	mkRows := func() []RouteStatus {
		return []RouteStatus{
			{Route: a, Score: 0.010, Mbps: 10},  // fastest RTT, thin
			{Route: b, Score: 0.100, Mbps: 100}, // slowest RTT, fat
			{Route: c, Score: 0.020, Mbps: 80},  // near-best on both axes
		}
	}
	rank := func(rows []RouteStatus) []Route {
		order := make([]Route, 0, len(rows))
		for range rows {
			best := -1
			for i := range rows {
				if containsRoute(order, rows[i].Route) {
					continue
				}
				if best < 0 || rows[i].Score < rows[best].Score {
					best = i
				}
			}
			order = append(order, rows[best].Route)
		}
		return order
	}

	t.Run("latency is untouched", func(t *testing.T) {
		rows := mkRows()
		objectiveScores(ObjectiveLatency, rows)
		for i, want := range []float64{0.010, 0.100, 0.020} {
			if rows[i].Score != want {
				t.Errorf("row %d score = %v, want %v (latency objective must not rewrite)", i, rows[i].Score, want)
			}
		}
	})

	t.Run("throughput ranks by Mbps", func(t *testing.T) {
		rows := mkRows()
		objectiveScores(ObjectiveThroughput, rows)
		if got := rank(rows); got[0] != b || got[1] != c || got[2] != a {
			t.Fatalf("throughput order = %v, want [b c a]", got)
		}
	})

	t.Run("throughput RTT tiebreak", func(t *testing.T) {
		rows := []RouteStatus{
			{Route: a, Score: 0.050, Mbps: 100},
			{Route: b, Score: 0.010, Mbps: 100},
		}
		objectiveScores(ObjectiveThroughput, rows)
		if got := rank(rows); got[0] != b {
			t.Fatalf("equal-Mbps order = %v, want the lower-RTT route first", got)
		}
	})

	t.Run("no burst data sorts after any data", func(t *testing.T) {
		rows := []RouteStatus{
			{Route: a, Score: 0.001, Mbps: 0},   // fastest RTT, never burst
			{Route: b, Score: 0.200, Mbps: 0.5}, // slow and thin, but measured
		}
		objectiveScores(ObjectiveThroughput, rows)
		if got := rank(rows); got[0] != b {
			t.Fatalf("order = %v: a route with burst data must outrank one without", got)
		}
	})

	t.Run("composite normalization", func(t *testing.T) {
		rows := mkRows()
		objectiveScores(ObjectiveComposite, rows)
		// bestLat = 10ms, bestMbps = 100: a = (1+10)/2, b = (10+1)/2,
		// c = (2+1.25)/2 — the balanced route wins.
		for i, want := range []float64{5.5, 5.5, 1.625} {
			if math.Abs(rows[i].Score-want) > 1e-9 {
				t.Errorf("composite row %d score = %v, want %v", i, rows[i].Score, want)
			}
		}
		if got := rank(rows); got[0] != c {
			t.Fatalf("composite order = %v, want c first", got)
		}
	})

	t.Run("composite degrades to latency without bursts", func(t *testing.T) {
		rows := []RouteStatus{
			{Route: a, Score: 0.010},
			{Route: b, Score: 0.100},
			{Route: c, Score: 0.020},
		}
		objectiveScores(ObjectiveComposite, rows)
		if got := rank(rows); got[0] != a || got[1] != c || got[2] != b {
			t.Fatalf("burst-less composite order = %v, want the latency order [a c b]", got)
		}
	})

	t.Run("down rows stay +Inf", func(t *testing.T) {
		for _, obj := range []Objective{ObjectiveThroughput, ObjectiveComposite} {
			rows := []RouteStatus{
				{Route: a, Score: math.Inf(1), Mbps: 500, Down: true},
				{Route: b, Score: 0.100, Mbps: 1},
			}
			objectiveScores(obj, rows)
			if !math.IsInf(rows[0].Score, 1) {
				t.Errorf("%v rewrote a down row's score to %v", obj, rows[0].Score)
			}
		}
	})
}

func containsRoute(rs []Route, r Route) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// TestStaleMbpsDecaysOutOfFirstPlace: a route whose bursts stop completing
// must not coast on its last good throughput — the estimate decays and the
// route falls out of first place under the throughput objective.
func TestStaleMbpsDecaysOutOfFirstPlace(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		BurstDuration: 100 * time.Millisecond,
		Interval:      time.Second,
	})
	tp := m.View(ObjectiveThroughput)
	now := time.Unix(1000, 0)

	// Both routes burst once; the relay is 10x fatter and leads.
	feedRound(m, now,
		map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond},
		map[Route]float64{Direct: 10, relayA: 100})
	m.now = func() time.Time { return now }
	if ranked := tp.Ranked(); ranked[0].Route != relayA {
		t.Fatalf("fat relay not first under throughput objective: %+v", ranked)
	}

	// RTT probes keep answering but only the direct path's bursts keep
	// completing; the relay's smoothed 100 Mbps must decay below the
	// direct path's fresh 10 Mbps.
	flipped := -1
	for i := 1; i <= 120; i++ {
		feedRound(m, now.Add(time.Duration(i)*time.Second),
			map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond},
			map[Route]float64{Direct: 10})
		m.now = func() time.Time { return now.Add(time.Duration(i) * time.Second) }
		if ranked := tp.Ranked(); ranked[0].Route == Direct {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("stale relay throughput never decayed out of first place")
	}
	// The decay is gradual: the relay must survive at least the staleness
	// horizon before losing the lead.
	if flipped < 3 {
		t.Fatalf("relay lost first place after %d rounds, inside the staleness horizon", flipped)
	}
}

// TestThroughputHysteresisHoldsMargin: the switch margin and K-round
// streak apply to the throughput objective exactly as to latency — a
// modest bandwidth lead must not flap traffic.
func TestThroughputHysteresisHoldsMargin(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		BurstDuration: 100 * time.Millisecond,
		SwitchMargin:  0.1,
		SwitchRounds:  2,
	})
	tp := m.View(ObjectiveThroughput)
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }
	rtts := map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond}

	// Direct leads on throughput: it becomes the incumbent.
	feedRound(m, tick(), rtts, map[Route]float64{Direct: 100, relayA: 50})
	feedRound(m, tick(), rtts, map[Route]float64{Direct: 100, relayA: 50})
	if best, ok := tp.Best(); !ok || best != Direct {
		t.Fatalf("initial best = %v (%v), want direct", best, ok)
	}

	// The relay pulls ahead, but within the 10% margin (1/105 vs 1/100):
	// no switch, however long it persists.
	for i := 0; i < 20; i++ {
		feedRound(m, tick(), rtts, map[Route]float64{Direct: 100, relayA: 105})
	}
	if best, _ := tp.Best(); best != Direct {
		t.Fatalf("flapped to %v on a within-margin throughput lead", best)
	}
	if n := switches(reg); n != 0 {
		t.Fatalf("switches = %d inside the margin, want 0", n)
	}

	// A decisive lead (1.3x) sustained for K rounds: exactly one switch.
	for i := 0; i < 3; i++ {
		feedRound(m, tick(), rtts, map[Route]float64{Direct: 100, relayA: 130})
	}
	if best, _ := tp.Best(); best != relayA {
		t.Fatalf("best = %v after a sustained 1.3x bandwidth lead, want %v", best, relayA)
	}
	if n := switches(reg); n != 1 {
		t.Fatalf("switches = %d, want exactly 1", n)
	}
}

// TestViewsDivergeByObjective: one Monitor, two objective views, two
// different committed routes over the same probe data — the per-listener
// objective seam.
func TestViewsDivergeByObjective(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		BurstDuration: 100 * time.Millisecond,
	})
	tp := m.View(ObjectiveThroughput)
	lat := m.View(ObjectiveLatency)
	if m.View(ObjectiveThroughput) != tp || m.View(ObjectiveLatency) != lat {
		t.Fatal("a repeated View(obj) returned a different view")
	}

	// Direct: low RTT, thin. Relay: 4x the RTT, 10x the bandwidth.
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		feedRound(m, now.Add(time.Duration(i)*time.Second),
			map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond},
			map[Route]float64{Direct: 10, relayA: 100})
	}
	m.now = func() time.Time { return now.Add(2 * time.Second) }
	if best, ok := lat.Best(); !ok || best != Direct {
		t.Fatalf("latency view best = %v (%v), want direct", best, ok)
	}
	if best, ok := tp.Best(); !ok || best != relayA {
		t.Fatalf("throughput view best = %v (%v), want %v", best, ok, relayA)
	}
	// The views disagree, so this shows which one the Monitor reads.
	if best, _ := m.Best(); best != Direct || m.Ranked()[0].Route != lat.Ranked()[0].Route {
		t.Fatalf("Monitor.Best = %v, want the latency view's %v", best, Direct)
	}
	if ranked := tp.Ranked(); len(ranked) == 0 || !ranked[0].Best || ranked[0].Route != relayA {
		t.Fatalf("throughput view table does not mark its own best: %+v", ranked)
	}

	// Pin overrides every view at once.
	m.Pin(relayA)
	if best, _ := m.Best(); best != relayA {
		t.Fatalf("latency view best = %v after Pin, want %v", best, relayA)
	}
	if best, _ := tp.Best(); best != relayA {
		t.Fatalf("throughput view best = %v after Pin, want %v", best, relayA)
	}
}

// TestPinHoldsForLaterViews: a Pin also holds for a view created after
// it and before the next integrated round, so a gateway that follows such
// a view dials the pinned route, not direct, even on a monitor that is
// never started. After that round the window is closed: a new view starts
// unselected and adopts the next round's leader.
func TestPinHoldsForLaterViews(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		BurstDuration: 100 * time.Millisecond,
	})
	m.Pin(relayA)
	tp := m.View(ObjectiveThroughput)
	if best, ok := tp.Best(); !ok || best != relayA {
		t.Fatalf("view created after Pin: best = %v (%v), want %v", best, ok, relayA)
	}

	round(m, time.Unix(1000, 0),
		map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond})
	if best, _ := tp.Best(); best != relayA {
		t.Fatalf("pinned view left %v after one round, want hysteresis to hold it", relayA)
	}
	if best, ok := m.View(ObjectiveComposite).Best(); ok {
		t.Fatalf("view created after an integrated round started on %v, want unselected", best)
	}
}

// TestViewGaugesPerObjective: each view exports its own best-route gauges,
// labelled with its objective. With the latency view on direct and the
// throughput view on the fat relay, the two disagree in /metrics.
func TestViewGaugesPerObjective(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         1,
		BurstDuration: 100 * time.Millisecond,
	})
	tp := m.View(ObjectiveThroughput)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		feedRound(m, now.Add(time.Duration(i)*time.Second),
			map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond},
			map[Route]float64{Direct: 10, relayA: 100})
	}
	m.now = func() time.Time { return now.Add(2 * time.Second) }
	if best, _ := tp.Best(); best != relayA {
		t.Fatalf("throughput view best = %v, want %v", best, relayA)
	}

	var sb strings.Builder
	if err := reg.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`cronets_pathmon_best_is_direct{objective="latency"} 1`,
		`cronets_pathmon_best_is_direct{objective="throughput"} 0`,
		`cronets_pathmon_route_mbps{objective="latency"} 10`,
		`cronets_pathmon_route_mbps{objective="throughput"} 100`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", line, sb.String())
		}
	}
}
