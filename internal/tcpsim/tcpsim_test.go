package tcpsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cronets/internal/netsim"
)

func metrics(rttMs float64, loss, availMbps float64) netsim.Metrics {
	return netsim.Metrics{
		BaseRTT:        time.Duration(rttMs * float64(time.Millisecond)),
		LossRate:       loss,
		BottleneckMbps: availMbps,
		AvailableMbps:  availMbps,
		Hops:           5,
	}
}

func runOnce(t *testing.T, m netsim.Metrics, seed int64) Result {
	t.Helper()
	res, err := Run(rand.New(rand.NewSource(seed)), StaticPath(m), DefaultConfig(),
		Spec{Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSpecRequired(t *testing.T) {
	_, err := Run(rand.New(rand.NewSource(1)), StaticPath(metrics(50, 0, 100)), DefaultConfig(), Spec{})
	if err != ErrSpec {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

func TestCleanPathApproachesCapacity(t *testing.T) {
	res := runOnce(t, metrics(20, 0, 100), 1)
	if res.ThroughputMbps < 70 || res.ThroughputMbps > 105 {
		t.Errorf("clean 100 Mbps path at 20ms: %v Mbps", res.ThroughputMbps)
	}
	if res.RetransRate > 1e-3 {
		t.Errorf("clean path retx = %v", res.RetransRate)
	}
}

// TestMathisLossScaling: throughput should fall roughly as 1/sqrt(p).
func TestMathisLossScaling(t *testing.T) {
	lo := runOnce(t, metrics(100, 1e-4, 1000), 1)
	hi := runOnce(t, metrics(100, 4e-4, 1000), 1)
	ratio := lo.ThroughputMbps / hi.ThroughputMbps
	// 4x loss -> ~2x lower throughput; allow generous tolerance.
	if ratio < 1.4 || ratio > 3.0 {
		t.Errorf("1e-4 vs 4e-4 loss: ratio %v (lo=%v hi=%v), want ~2",
			ratio, lo.ThroughputMbps, hi.ThroughputMbps)
	}
}

// TestMathisRTTScaling: with Reno, at fixed loss, throughput falls roughly
// as 1/RTT (the Mathis model). CUBIC is deliberately less RTT-sensitive, so
// this test pins the algorithm.
func TestMathisRTTScaling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alg = Reno
	spec := Spec{Duration: 30 * time.Second}
	fast, err := Run(rand.New(rand.NewSource(3)), StaticPath(metrics(50, 2e-4, 1000)), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(rand.New(rand.NewSource(3)), StaticPath(metrics(200, 2e-4, 1000)), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fast.ThroughputMbps / slow.ThroughputMbps
	if ratio < 2.0 || ratio > 8.0 {
		t.Errorf("50ms vs 200ms RTT: ratio %v (fast=%v slow=%v), want ~4",
			ratio, fast.ThroughputMbps, slow.ThroughputMbps)
	}
}

func TestReceiveWindowCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCwnd = 100 // 100 pkts x 1460 B at 100ms -> ~11.7 Mbps
	res, err := Run(rand.New(rand.NewSource(1)), StaticPath(metrics(100, 0, 1000)), cfg,
		Spec{Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cap := 100 * 1460 * 8 / 0.1 / 1e6
	if res.ThroughputMbps > cap*1.05 {
		t.Errorf("throughput %v exceeds rwnd cap %v", res.ThroughputMbps, cap)
	}
	if res.ThroughputMbps < cap*0.7 {
		t.Errorf("throughput %v far below rwnd cap %v", res.ThroughputMbps, cap)
	}
}

func TestTransferSpec(t *testing.T) {
	const size = 10 << 20
	res, err := Run(rand.New(rand.NewSource(1)), StaticPath(metrics(30, 1e-5, 100)),
		DefaultConfig(), Spec{TransferBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes < size {
		t.Errorf("transferred %d bytes, want >= %d", res.Bytes, size)
	}
	// Should not overshoot by more than a window's worth of data.
	if res.Bytes > size+(1<<21) {
		t.Errorf("transferred %d bytes, overshoot too large", res.Bytes)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestDurationSpecElapsed(t *testing.T) {
	res := runOnce(t, metrics(50, 1e-4, 100), 9)
	if res.Elapsed < 30*time.Second {
		t.Errorf("elapsed = %v, want >= 30s", res.Elapsed)
	}
	if res.Elapsed > 40*time.Second {
		t.Errorf("elapsed = %v, way past the duration limit", res.Elapsed)
	}
}

func TestHighLossCausesTimeouts(t *testing.T) {
	res := runOnce(t, metrics(100, 0.3, 100), 5)
	if res.Timeouts == 0 {
		t.Error("30% loss should cause timeouts")
	}
	if res.ThroughputMbps > 1 {
		t.Errorf("throughput at 30%% loss = %v Mbps, should be tiny", res.ThroughputMbps)
	}
}

func TestAvgRTTIncludesQueueing(t *testing.T) {
	m := metrics(50, 0, 10) // thin path: self-queueing expected
	res := runOnce(t, m, 2)
	if res.AvgRTT < 50*time.Millisecond {
		t.Errorf("AvgRTT = %v below propagation RTT", res.AvgRTT)
	}
}

func TestRenoVsCubicBothWork(t *testing.T) {
	for _, alg := range []Algorithm{Reno, Cubic} {
		cfg := DefaultConfig()
		cfg.Alg = alg
		res, err := Run(rand.New(rand.NewSource(1)), StaticPath(metrics(50, 1e-4, 100)), cfg,
			Spec{Duration: 20 * time.Second})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.ThroughputMbps <= 0 {
			t.Errorf("%v: zero throughput", alg)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := runOnce(t, metrics(80, 2e-4, 100), 42)
	b := runOnce(t, metrics(80, 2e-4, 100), 42)
	if a.ThroughputMbps != b.ThroughputMbps || a.RetransRate != b.RetransRate {
		t.Error("same seed produced different results")
	}
}

func TestSplitBeatsEndToEndOnLongLossyPath(t *testing.T) {
	// Two 100ms segments with moderate loss: one end-to-end loop sees
	// 200ms RTT and composed loss; split halves both.
	seg := StaticPath(metrics(100, 2e-4, 1000))
	whole := StaticPath(metrics(200, 1-(1-2e-4)*(1-2e-4), 1000))
	spec := Spec{Duration: 30 * time.Second}

	e2e, err := Run(rand.New(rand.NewSource(1)), whole, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunSplit(rand.New(rand.NewSource(1)), seg, seg, DefaultSplitConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if split.ThroughputMbps < e2e.ThroughputMbps*1.3 {
		t.Errorf("split = %v, e2e = %v: split should clearly win", split.ThroughputMbps, e2e.ThroughputMbps)
	}
}

func TestSplitBoundedByWorstSegment(t *testing.T) {
	good := StaticPath(metrics(20, 0, 1000))
	bad := StaticPath(metrics(100, 5e-3, 1000))
	spec := Spec{Duration: 30 * time.Second}
	split, err := RunSplit(rand.New(rand.NewSource(2)), good, bad, DefaultSplitConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	badAlone, err := Run(rand.New(rand.NewSource(2)), bad, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if split.ThroughputMbps > badAlone.ThroughputMbps*1.5 {
		t.Errorf("split = %v exceeds worst segment %v by too much",
			split.ThroughputMbps, badAlone.ThroughputMbps)
	}
}

func TestSplitTransferCompletes(t *testing.T) {
	seg := StaticPath(metrics(50, 1e-4, 100))
	res, err := RunSplit(rand.New(rand.NewSource(3)), seg, seg, DefaultSplitConfig(),
		Spec{TransferBytes: 5 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes < 5<<20 {
		t.Errorf("delivered %d bytes, want >= %d", res.Bytes, 5<<20)
	}
}

func TestSplitSpecRequired(t *testing.T) {
	seg := StaticPath(metrics(50, 0, 100))
	if _, err := RunSplit(rand.New(rand.NewSource(1)), seg, seg, DefaultSplitConfig(), Spec{}); err != ErrSpec {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

func TestConcatPath(t *testing.T) {
	a := StaticPath(metrics(50, 0.01, 100))
	b := StaticPath(metrics(30, 0.02, 50))
	m := ConcatPath(a, b, time.Millisecond)(0)
	if m.BaseRTT != 82*time.Millisecond {
		t.Errorf("BaseRTT = %v", m.BaseRTT)
	}
	if m.AvailableMbps != 50 {
		t.Errorf("AvailableMbps = %v", m.AvailableMbps)
	}
}

func TestSimulateRoundConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	for i := 0; i < 200; i++ {
		send := float64(1 + rng.Intn(5000))
		m := metrics(50, rng.Float64()*0.05, 50)
		out := simulateRound(rng, m, cfg, send)
		if out.delivered < 0 || out.lost < 0 {
			t.Fatalf("negative counts: %+v", out)
		}
		if math.Abs(out.delivered+out.lost-out.sent) > 1e-6 {
			t.Fatalf("delivered+lost != sent: %+v", out)
		}
		if out.rtt < m.BaseRTT {
			t.Fatalf("RTT %v below base %v", out.rtt, m.BaseRTT)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3},    // exact branch
		{5000, 5e-4}, // poisson branch
		{5000, 0.4},  // normal branch
	}
	for _, c := range cases {
		var sum float64
		const trials = 3000
		for i := 0; i < trials; i++ {
			k := binomial(rng, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("binomial out of range: %d", k)
			}
			sum += float64(k)
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-want) > 4*sd/math.Sqrt(trials)+0.05*want+0.1 {
			t.Errorf("binomial(%d, %v) mean = %v, want %v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if binomial(rng, 0, 0.5) != 0 {
		t.Error("n=0 should give 0")
	}
	if binomial(rng, 10, 0) != 0 {
		t.Error("p=0 should give 0")
	}
	if binomial(rng, 10, 1) != 10 {
		t.Error("p=1 should give n")
	}
}

func TestNetworkPathTimeOffset(t *testing.T) {
	n := netsim.New()
	a := n.AddNode(netsim.Node{Name: "a", Kind: netsim.KindHost})
	b := n.AddNode(netsim.Node{Name: "b", Kind: netsim.KindHost})
	l := netsim.Link{A: a, B: b, Delay: 10 * time.Millisecond, CapacityMbps: 100, MaxQueueDelay: time.Millisecond}
	if err := n.AddLink(l); err != nil {
		t.Fatal(err)
	}
	ll, _ := n.Link(a, b)
	ll.AddEvent(netsim.CongestionEvent{Start: time.Hour, End: 2 * time.Hour, ExtraLoss: 0.5})

	pf, err := NetworkPath(n, netsim.Path{Nodes: []netsim.NodeID{a, b}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := pf(0).LossRate; got < 0.4 {
		t.Errorf("start offset not applied: loss = %v", got)
	}
	pf2, err := NetworkPath(n, netsim.Path{Nodes: []netsim.NodeID{a, b}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := pf2(0).LossRate; got > 0.1 {
		t.Errorf("loss before event = %v", got)
	}
}

func TestNetworkPathInvalid(t *testing.T) {
	n := netsim.New()
	a := n.AddNode(netsim.Node{Name: "a"})
	if _, err := NetworkPath(n, netsim.Path{Nodes: []netsim.NodeID{a}}, 0); err == nil {
		t.Error("expected error for invalid path")
	}
}
