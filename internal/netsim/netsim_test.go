package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// buildLine creates a 4-node line network A-B-C-D with uniform links.
func buildLine(t *testing.T, mk func(a, b NodeID) Link) (*Network, []NodeID) {
	t.Helper()
	return buildLineOf(t, 4, mk)
}

// buildLineOf creates a line network of the given number of nodes, linking
// each node to the next with mk.
func buildLineOf(t *testing.T, nodes int, mk func(a, b NodeID) Link) (*Network, []NodeID) {
	t.Helper()
	n := New()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = n.AddNode(Node{Name: string(rune('A' + i)), Kind: KindRouter})
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := n.AddLink(mk(ids[i], ids[i+1])); err != nil {
			t.Fatalf("add link: %v", err)
		}
	}
	return n, ids
}

func simpleLink(a, b NodeID) Link {
	return Link{
		A: a, B: b,
		Delay:           10 * time.Millisecond,
		CapacityMbps:    100,
		BaseLossRate:    0.001,
		BaseUtilization: 0.2,
		MaxQueueDelay:   20 * time.Millisecond,
	}
}

func TestAddLinkValidation(t *testing.T) {
	n := New()
	a := n.AddNode(Node{Name: "a"})
	if err := n.AddLink(Link{A: a, B: 99}); err == nil {
		t.Error("expected error for unknown node")
	}
	if err := n.AddLink(Link{A: a, B: a}); err == nil {
		t.Error("expected error for self loop")
	}
}

func TestLinkLookupIsUndirected(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	if _, ok := n.Link(ids[0], ids[1]); !ok {
		t.Fatal("forward lookup failed")
	}
	if _, ok := n.Link(ids[1], ids[0]); !ok {
		t.Fatal("reverse lookup failed")
	}
	if _, ok := n.Link(ids[0], ids[2]); ok {
		t.Fatal("nonexistent link found")
	}
}

func TestNeighbors(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	if got := len(n.Neighbors(ids[1])); got != 2 {
		t.Errorf("middle node has %d neighbors, want 2", got)
	}
	if got := len(n.Neighbors(ids[0])); got != 1 {
		t.Errorf("end node has %d neighbors, want 1", got)
	}
}

func TestPathMetricsComposition(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	m, err := n.PathMetrics(Path{Nodes: ids}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Base RTT: 3 links x 10ms x 2 = 60ms.
	if m.BaseRTT != 60*time.Millisecond {
		t.Errorf("BaseRTT = %v, want 60ms", m.BaseRTT)
	}
	// Loss composes as 1-(1-p)^3.
	want := 1 - math.Pow(1-0.001, 3)
	if math.Abs(m.LossRate-want) > 1e-12 {
		t.Errorf("LossRate = %v, want %v", m.LossRate, want)
	}
	if m.BottleneckMbps != 100 {
		t.Errorf("Bottleneck = %v", m.BottleneckMbps)
	}
	if math.Abs(m.AvailableMbps-80) > 1e-9 {
		t.Errorf("Available = %v, want 80", m.AvailableMbps)
	}
	if m.Hops != 3 {
		t.Errorf("Hops = %d", m.Hops)
	}
}

func TestPathMetricsErrors(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	if _, err := n.PathMetrics(Path{Nodes: ids[:1]}, 0); err == nil {
		t.Error("expected error for single-node path")
	}
	if _, err := n.PathMetrics(Path{Nodes: []NodeID{ids[0], ids[2]}}, 0); err == nil {
		t.Error("expected error for missing link")
	}
}

func TestCongestionEvent(t *testing.T) {
	l := simpleLink(0, 1)
	l.AddEvent(CongestionEvent{
		Start: time.Hour, End: 2 * time.Hour,
		ExtraUtilization: 0.5, ExtraLoss: 0.01,
	})
	before := l.LossRateAt(30 * time.Minute)
	during := l.LossRateAt(90 * time.Minute)
	after := l.LossRateAt(3 * time.Hour)
	if during <= before || during <= after {
		t.Errorf("event did not raise loss: before=%v during=%v after=%v", before, during, after)
	}
	if math.Abs(before-after) > 1e-12 {
		t.Errorf("loss differs outside event: %v vs %v", before, after)
	}
	if u := l.UtilizationAt(90 * time.Minute); u <= l.BaseUtilization {
		t.Errorf("event did not raise utilization: %v", u)
	}
}

func TestUtilizationClamped(t *testing.T) {
	l := simpleLink(0, 1)
	l.BaseUtilization = 0.9
	l.AddEvent(CongestionEvent{Start: 0, End: time.Hour, ExtraUtilization: 0.5})
	if u := l.UtilizationAt(time.Minute); u > 0.98 {
		t.Errorf("utilization above cap: %v", u)
	}
	l2 := simpleLink(0, 1)
	l2.BaseUtilization = -1
	if u := l2.UtilizationAt(0); u != 0 {
		t.Errorf("negative utilization not clamped: %v", u)
	}
}

// TestQueueDelayMonotonic: queueing delay grows with utilization.
func TestQueueDelayMonotonic(t *testing.T) {
	f := func(u1, u2 float64) bool {
		a, b := math.Abs(math.Mod(u1, 1)), math.Abs(math.Mod(u2, 1))
		if a > b {
			a, b = b, a
		}
		la := simpleLink(0, 1)
		la.BaseUtilization = a
		lb := simpleLink(0, 1)
		lb.BaseUtilization = b
		return la.QueueDelayAt(0) <= lb.QueueDelayAt(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLossMonotonicInUtil: congestion loss is non-decreasing in
// utilization above the knee.
func TestLossMonotonicInUtil(t *testing.T) {
	prev := -1.0
	for u := 0.0; u <= 0.98; u += 0.02 {
		l := simpleLink(0, 1)
		l.BaseUtilization = u
		loss := l.LossRateAt(0)
		if loss < prev-1e-12 {
			t.Fatalf("loss decreased at u=%v", u)
		}
		prev = loss
	}
}

func TestConcat(t *testing.T) {
	a := Path{Nodes: []NodeID{1, 2, 3}}
	b := Path{Nodes: []NodeID{3, 4}}
	got, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{1, 2, 3, 4}
	if len(got.Nodes) != len(want) {
		t.Fatalf("Concat = %v", got.Nodes)
	}
	for i := range want {
		if got.Nodes[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got.Nodes, want)
		}
	}
	if _, err := Concat(a, Path{Nodes: []NodeID{9, 10}}); err == nil {
		t.Error("expected pivot mismatch error")
	}
	if _, err := Concat(Path{}, b); err == nil {
		t.Error("expected empty-path error")
	}
}

func TestConcatMetrics(t *testing.T) {
	a := Metrics{BaseRTT: 100 * time.Millisecond, LossRate: 0.01, BottleneckMbps: 100, AvailableMbps: 80, Hops: 3}
	b := Metrics{BaseRTT: 50 * time.Millisecond, LossRate: 0.02, BottleneckMbps: 50, AvailableMbps: 40, Hops: 2}
	m := ConcatMetrics(a, b, time.Millisecond)
	if m.BaseRTT != 152*time.Millisecond {
		t.Errorf("BaseRTT = %v (relay overhead counted twice per round trip)", m.BaseRTT)
	}
	wantLoss := 1 - 0.99*0.98
	if math.Abs(m.LossRate-wantLoss) > 1e-12 {
		t.Errorf("LossRate = %v, want %v", m.LossRate, wantLoss)
	}
	if m.BottleneckMbps != 50 || m.AvailableMbps != 40 {
		t.Errorf("bandwidths = %v/%v", m.BottleneckMbps, m.AvailableMbps)
	}
	if m.Hops != 5 {
		t.Errorf("Hops = %d", m.Hops)
	}
}

func TestPathValid(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	if !(Path{Nodes: ids}).Valid(n) {
		t.Error("line path should be valid")
	}
	if (Path{Nodes: []NodeID{ids[0], ids[1], ids[0]}}).Valid(n) {
		t.Error("revisiting path should be invalid")
	}
	if (Path{Nodes: ids[:1]}).Valid(n) {
		t.Error("single-node path should be invalid")
	}
}

func TestReplaceLink(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	nl := simpleLink(ids[0], ids[1])
	nl.CapacityMbps = 999
	if err := n.AddLink(nl); err != nil {
		t.Fatal(err)
	}
	l, _ := n.Link(ids[0], ids[1])
	if l.CapacityMbps != 999 {
		t.Errorf("link not replaced: %v", l.CapacityMbps)
	}
	// Adjacency should not duplicate.
	if got := len(n.Neighbors(ids[0])); got != 1 {
		t.Errorf("neighbors after replace = %d", got)
	}
}

func TestMetricsRTT(t *testing.T) {
	m := Metrics{BaseRTT: 100 * time.Millisecond, QueueDelayRTT: 20 * time.Millisecond}
	if m.RTT() != 120*time.Millisecond {
		t.Errorf("RTT = %v", m.RTT())
	}
}

// refMetrics composes p's metrics at t from the public per-link accessors,
// in path order: the composition ResolvedPath.MetricsAt must reproduce bit
// for bit while evaluating each link's utilization only once.
func refMetrics(t *testing.T, n *Network, p Path, at time.Duration) Metrics {
	t.Helper()
	m := Metrics{BottleneckMbps: -1, AvailableMbps: -1, Hops: p.Hops()}
	survive := 1.0
	for i := 1; i < len(p.Nodes); i++ {
		l, ok := n.Link(p.Nodes[i-1], p.Nodes[i])
		if !ok {
			t.Fatalf("no link %d-%d", p.Nodes[i-1], p.Nodes[i])
		}
		m.BaseRTT += 2 * l.Delay
		m.QueueDelayRTT += 2 * l.QueueDelayAt(at)
		survive *= 1 - l.LossRateAt(at)
		if m.BottleneckMbps < 0 || l.CapacityMbps < m.BottleneckMbps {
			m.BottleneckMbps = l.CapacityMbps
		}
		if avail := l.AvailableMbps(at); m.AvailableMbps < 0 || avail < m.AvailableMbps {
			m.AvailableMbps = avail
		}
	}
	m.LossRate = 1 - survive
	return m
}

// TestResolvedPathBitIdentical: MetricsAt equals the per-accessor reference
// exactly on a path that mixes links with diurnal swings and links without
// (whose values ResolvePath snapshots), with a congestion event that pushes a
// diurnal link past the loss knee, before, during and after the event and
// across a diurnal half-period. It then adds an event to a snapshotted link
// after resolution: MetricsAt must see it, before, during and after it.
func TestResolvedPathBitIdentical(t *testing.T) {
	i := 0
	n, ids := buildLineOf(t, 7, func(a, b NodeID) Link {
		l := simpleLink(a, b)
		l.BaseUtilization = 0.45 + 0.07*float64(i)
		l.BaseLossRate = 0.0007 * float64(i+1)
		l.CapacityMbps = 100 - 12*float64(i)
		l.MaxQueueDelay = time.Duration(5+7*i) * time.Millisecond
		if i%2 == 0 {
			l.DiurnalAmplitude = 0.2 + 0.05*float64(i)
			l.DiurnalPhase = 0.3 * float64(i)
		}
		i++
		return l
	})
	diurnal, _ := n.Link(ids[2], ids[3])
	diurnal.AddEvent(CongestionEvent{Start: 2 * time.Hour, End: 5 * time.Hour, ExtraUtilization: 0.3, ExtraLoss: 0.004})

	p := Path{Nodes: ids}
	r, err := n.ResolvePath(p)
	if err != nil {
		t.Fatal(err)
	}
	for j, l := range r.links {
		if want := j%2 == 1; l.fixed != want {
			t.Fatalf("link %d snapshotted = %v, want %v", j, l.fixed, want)
		}
	}
	times := []time.Duration{0, time.Hour, 2 * time.Hour, 3*time.Hour + 17*time.Second, 5*time.Hour - time.Nanosecond, 5 * time.Hour,
		6 * time.Hour, 7 * time.Hour, 8*time.Hour - time.Nanosecond, 8 * time.Hour, 9 * time.Hour}
	for h := time.Duration(0); h <= 12*time.Hour; h += 90 * time.Minute {
		times = append(times, h+1234*time.Millisecond)
	}
	check := func(stage string) {
		t.Helper()
		for _, at := range times {
			want := refMetrics(t, n, p, at)
			if got := r.MetricsAt(at); got != want {
				t.Errorf("%s: MetricsAt(%v) = %+v, want %+v", stage, at, got, want)
			}
			if got, err := n.PathMetrics(p, at); err != nil || got != want {
				t.Errorf("%s: PathMetrics(%v) = %+v, %v, want %+v", stage, at, got, err, want)
			}
		}
	}
	check("before the late event")
	// The event must actually have moved the path past the loss knee.
	if during, after := r.MetricsAt(3*time.Hour), r.MetricsAt(5*time.Hour); during.LossRate <= after.LossRate {
		t.Errorf("event did not raise loss: during %v, after %v", during.LossRate, after.LossRate)
	}

	fixed, _ := n.Link(ids[3], ids[4])
	before := r.MetricsAt(7 * time.Hour)
	fixed.AddEvent(CongestionEvent{Start: 6 * time.Hour, End: 8 * time.Hour, ExtraUtilization: 0.35, ExtraLoss: 0.003})
	check("after the late event was added")
	if during := r.MetricsAt(7 * time.Hour); during.LossRate <= before.LossRate || during.QueueDelayRTT <= before.QueueDelayRTT {
		t.Errorf("late event not seen: during %+v, without it %+v", during, before)
	}
}

func TestResolvePathErrors(t *testing.T) {
	n, ids := buildLine(t, simpleLink)
	tests := []struct {
		p    Path
		want string
	}{
		{Path{Nodes: ids[:1]}, "netsim: path needs at least 2 nodes, got 1"},
		{Path{Nodes: []NodeID{ids[0], ids[2]}}, "netsim: no link 0-2 on path"},
	}
	for _, tt := range tests {
		if _, err := n.ResolvePath(tt.p); err == nil || err.Error() != tt.want {
			t.Errorf("ResolvePath(%v) error = %v, want %q", tt.p.Nodes, err, tt.want)
		}
		if _, err := n.PathMetrics(tt.p, 0); err == nil || err.Error() != tt.want {
			t.Errorf("PathMetrics(%v) error = %v, want %q", tt.p.Nodes, err, tt.want)
		}
	}
}
