package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

func testNet(t testing.TB) (*topology.Internet, *CRONet) {
	t.Helper()
	cfg := topology.DefaultConfig(42)
	cfg.ClientStubs = 8
	cfg.ServerStubs = 3
	in, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return in, New(in, DefaultConfig())
}

func TestPathKindString(t *testing.T) {
	tests := []struct {
		k    PathKind
		want string
	}{
		{Direct, "direct"}, {Overlay, "overlay"},
		{SplitOverlay, "split-overlay"}, {DiscreteOverlay, "discrete-overlay"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestMeasureDirect(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	m, path, err := cn.MeasureDirect(rng, in.Servers[0], in.Clients[0],
		tcpsim.Spec{Duration: 10 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Direct {
		t.Errorf("kind = %v", m.Kind)
	}
	if m.ThroughputMbps <= 0 || m.AvgRTT <= 0 {
		t.Errorf("measurement = %+v", m)
	}
	if len(path.Nodes) < 3 {
		t.Errorf("path too short: %v", path.Nodes)
	}
}

func TestMeasureOverlayAllKinds(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	om, err := cn.MeasureOverlay(rng, in.Servers[0], in.Clients[0], in.DCOrder[0],
		tcpsim.Spec{Duration: 10 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if om.Plain.Kind != Overlay || om.Split.Kind != SplitOverlay || om.Discrete.Kind != DiscreteOverlay {
		t.Error("kinds wrong")
	}
	for _, m := range []Measurement{om.Plain, om.Split, om.Discrete} {
		if m.ThroughputMbps <= 0 {
			t.Errorf("%v throughput = %v", m.Kind, m.ThroughputMbps)
		}
		if m.DC != in.DCOrder[0] {
			t.Errorf("%v DC = %q", m.Kind, m.DC)
		}
	}
	if _, err := cn.MeasureOverlay(rng, in.Servers[0], in.Clients[0], "Gotham",
		tcpsim.Spec{Duration: time.Second}, 0); err == nil {
		t.Error("expected error for unknown DC")
	}
}

func TestMeasurePair(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	pr, err := cn.MeasurePair(rng, in.Servers[0], in.Clients[1], cn.DCCities(),
		tcpsim.Spec{Duration: 10 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Overlays) != len(in.DCOrder) {
		t.Fatalf("overlays = %d", len(pr.Overlays))
	}
	best, ok := pr.BestOverlay(SplitOverlay)
	if !ok {
		t.Fatal("no best overlay")
	}
	for _, o := range pr.Overlays {
		if o.Split.ThroughputMbps > best.ThroughputMbps {
			t.Error("BestOverlay did not return the max")
		}
	}
	if retx, ok := pr.MinOverlayRetrans(); !ok || retx < 0 {
		t.Errorf("MinOverlayRetrans = %v, %v", retx, ok)
	}
	if rtt, ok := pr.MinOverlayRTT(); !ok || rtt <= 0 {
		t.Errorf("MinOverlayRTT = %v, %v", rtt, ok)
	}
}

func TestBestOverlayEmpty(t *testing.T) {
	var pr PairResult
	if _, ok := pr.BestOverlay(Overlay); ok {
		t.Error("empty result should report no overlay")
	}
	if _, ok := pr.MinOverlayRetrans(); ok {
		t.Error("empty result should report no retrans")
	}
	if _, ok := pr.MinOverlayRTT(); ok {
		t.Error("empty result should report no RTT")
	}
}

func TestMeasurementDeterminism(t *testing.T) {
	in, cn := testNet(t)
	spec := tcpsim.Spec{Duration: 10 * time.Second}
	a, _, err := cn.MeasureDirect(rand.New(rand.NewSource(5)), in.Servers[0], in.Clients[0], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := cn.MeasureDirect(rand.New(rand.NewSource(5)), in.Servers[0], in.Clients[0], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputMbps != b.ThroughputMbps || a.AvgRTT != b.AvgRTT {
		t.Error("same seed produced different measurements")
	}
}

func TestMeasureMPTCP(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	src := in.DCs[in.DCOrder[0]]
	dst := in.DCs[in.DCOrder[1]]
	overlays := in.DCOrder[2:]
	res, err := cn.MeasureMPTCP(rng, src, dst, overlays,
		tcpsim.OLIA, tcpsim.Reno, tcpsim.Spec{Duration: 20 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps <= 0 {
		t.Errorf("total = %v", res.TotalMbps)
	}
	if len(res.SubflowMbps) != 1+len(overlays) {
		t.Errorf("subflows = %d, want %d", len(res.SubflowMbps), 1+len(overlays))
	}
	if res.TotalMbps > 101 {
		t.Errorf("total %v exceeds the NIC", res.TotalMbps)
	}

	// The direct path must carry at least some traffic between DCs.
	direct, _, err := cn.MeasureDirect(rng, src, dst, tcpsim.Spec{Duration: 10 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps < direct.ThroughputMbps*0.5 {
		t.Errorf("MPTCP %v far below single-path direct %v", res.TotalMbps, direct.ThroughputMbps)
	}
}

// TestTunnelMSSPenalty: the plain overlay's effective MSS shrinks by the
// encapsulation header; a zero-header config must not.
func TestTunnelHeaderApplied(t *testing.T) {
	in, _ := testNet(t)
	cfg := DefaultConfig()
	cfg.TunnelHeaderBytes = 0
	cfg.RelayLossRate = 0
	cnNoHeader := New(in, cfg)
	rng := rand.New(rand.NewSource(9))
	spec := tcpsim.Spec{Duration: 10 * time.Second}
	a, err := cnNoHeader.MeasureOverlay(rng, in.Servers[0], in.Clients[0], in.DCOrder[0], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.TunnelHeaderBytes = 400 // exaggerated to make the effect visible
	cfg2.RelayLossRate = 0
	cnBigHeader := New(in, cfg2)
	b, err := cnBigHeader.MeasureOverlay(rand.New(rand.NewSource(9)), in.Servers[0], in.Clients[0], in.DCOrder[0], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Plain.ThroughputMbps >= a.Plain.ThroughputMbps {
		t.Errorf("big tunnel header did not reduce plain throughput: %v vs %v",
			b.Plain.ThroughputMbps, a.Plain.ThroughputMbps)
	}
}

// digest is FNV-64a over the little-endian bytes of vs.
func digest(vs []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// appendMeasurement appends m's result bits to vs: the throughput and
// retransmission-rate bits, then the average RTT.
func appendMeasurement(vs []uint64, m Measurement) []uint64 {
	return append(vs, math.Float64bits(m.ThroughputMbps), math.Float64bits(m.RetransRate), uint64(m.AvgRTT))
}

// resultDigest hashes every result bit of the given pairs: each
// measurement's bits, direct first, then plain/split/discrete per overlay.
func resultDigest(prs []PairResult) string {
	var vs []uint64
	for _, pr := range prs {
		vs = appendMeasurement(vs, pr.Direct)
		for _, o := range pr.Overlays {
			vs = appendMeasurement(vs, o.Plain)
			vs = appendMeasurement(vs, o.Split)
			vs = appendMeasurement(vs, o.Discrete)
		}
	}
	return digest(vs)
}

// goldenDigest pins the simulator's output for the pairs measured by
// TestMeasurePairGolden. Optimisations of the simulator must keep it
// bit-identical; only a deliberate model change may re-record it.
const goldenDigest = "7e201f77895699b2"

// TestMeasurePairGolden pins MeasurePair's results bit for bit on fixed
// (server, client, seed) triples.
func TestMeasurePairGolden(t *testing.T) {
	in, cn := testNet(t)
	triples := []struct {
		server, client int
		seed           int64
	}{
		{0, 0, 1},
		{1, 3, 2},
		{2, 6, 3},
	}
	var prs []PairResult
	for _, tr := range triples {
		pr, err := cn.MeasurePair(rand.New(rand.NewSource(tr.seed)), in.Servers[tr.server], in.Clients[tr.client],
			cn.DCCities(), tcpsim.Spec{Duration: 10 * time.Second}, 0)
		if err != nil {
			t.Fatal(err)
		}
		prs = append(prs, pr)
	}
	if got := resultDigest(prs); got != goldenDigest {
		t.Errorf("result digest = %s, want %s", got, goldenDigest)
	}
}

// mptcpRun is one MeasureMPTCP run of an MPTCP golden: a (server, client)
// pair over the direct path plus every overlay, a coupling and subflow
// algorithm, a seed and a start time.
type mptcpRun struct {
	server, client int
	coupling       tcpsim.Coupling
	alg            tcpsim.Algorithm
	seed           int64
	at             time.Duration
}

// mptcpDigest runs each of runs with a 10 s spec and a 100 Mbps NIC and
// hashes the results: per run the total, then every subflow's throughput
// bits.
func mptcpDigest(t *testing.T, runs []mptcpRun) string {
	t.Helper()
	in, cn := testNet(t)
	var vs []uint64
	for _, r := range runs {
		res, err := cn.MeasureMPTCP(rand.New(rand.NewSource(r.seed)), in.Servers[r.server], in.Clients[r.client],
			cn.DCCities(), r.coupling, r.alg, tcpsim.Spec{Duration: 10 * time.Second}, r.at)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, math.Float64bits(res.TotalMbps))
		for _, s := range res.SubflowMbps {
			vs = append(vs, math.Float64bits(s))
		}
	}
	return digest(vs)
}

// mptcpGoldenDigest pins MeasureMPTCP's results for the runs of
// TestMeasureMPTCPGolden; like goldenDigest, only a deliberate model change
// may re-record it.
const mptcpGoldenDigest = "121d4ea430bb008f"

// TestMeasureMPTCPGolden pins MeasureMPTCP's results on fixed pairs in both
// of the paper's configurations: coupled OLIA over Reno (Figure 12) and
// uncoupled per-subflow CUBIC (Figure 13).
func TestMeasureMPTCPGolden(t *testing.T) {
	got := mptcpDigest(t, []mptcpRun{
		{0, 0, tcpsim.OLIA, tcpsim.Reno, 1, 0},
		{1, 3, tcpsim.OLIA, tcpsim.Reno, 2, 7 * time.Hour},
		{0, 0, tcpsim.Uncoupled, tcpsim.Cubic, 1, 0},
		{2, 6, tcpsim.Uncoupled, tcpsim.Cubic, 3, 7 * time.Hour},
	})
	if got != mptcpGoldenDigest {
		t.Errorf("MPTCP digest = %s, want %s", got, mptcpGoldenDigest)
	}
}

// mptcpCouplingDigest pins MeasureMPTCP's results for the runs of
// TestMeasureMPTCPCouplingGolden, recorded before the MPTCP window rules
// moved onto tcpsim's flow.
const mptcpCouplingDigest = "cf23176dcd558274"

// TestMeasureMPTCPCouplingGolden pins the coupling and algorithm
// combinations that TestMeasureMPTCPGolden leaves out: LIA over Reno and
// CUBIC, OLIA over CUBIC (a coupled subflow still halves like Reno) and
// uncoupled Reno.
func TestMeasureMPTCPCouplingGolden(t *testing.T) {
	got := mptcpDigest(t, []mptcpRun{
		{0, 0, tcpsim.LIA, tcpsim.Reno, 1, 0},
		{1, 3, tcpsim.LIA, tcpsim.Cubic, 2, 7 * time.Hour},
		{2, 6, tcpsim.OLIA, tcpsim.Cubic, 3, 0},
		{1, 3, tcpsim.Uncoupled, tcpsim.Reno, 2, 7 * time.Hour},
	})
	if got != mptcpCouplingDigest {
		t.Errorf("MPTCP coupling digest = %s, want %s", got, mptcpCouplingDigest)
	}
}

// BenchmarkMeasurePair times one MeasurePair (direct plus every overlay) of
// a 100 MB, two-minute-capped download per iteration on a fixed pair and
// seed, with the pair's routes computed before the timer starts.
func BenchmarkMeasurePair(b *testing.B) {
	in, cn := testNet(b)
	spec := tcpsim.Spec{TransferBytes: 100 << 20, Duration: 2 * time.Minute}
	src, dst, dcs := in.Servers[0], in.Clients[0], cn.DCCities()
	if _, err := cn.MeasurePair(rand.New(rand.NewSource(1)), src, dst, dcs, spec, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cn.MeasurePair(rand.New(rand.NewSource(1)), src, dst, dcs, spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureMPTCP times one MeasureMPTCP in each of the paper's MPTCP
// configurations per iteration, OLIA over Reno (Figure 12) and uncoupled
// CUBIC (Figure 13): a 1-minute run over the direct path plus every overlay
// on a fixed pair and seed, with the pair's routes computed before the
// timer starts.
func BenchmarkMeasureMPTCP(b *testing.B) {
	in, cn := testNet(b)
	spec := tcpsim.Spec{Duration: time.Minute}
	src, dst, dcs := in.Servers[0], in.Clients[0], cn.DCCities()
	run := func() {
		for _, c := range []struct {
			coupling tcpsim.Coupling
			alg      tcpsim.Algorithm
		}{{tcpsim.OLIA, tcpsim.Reno}, {tcpsim.Uncoupled, tcpsim.Cubic}} {
			if _, err := cn.MeasureMPTCP(rand.New(rand.NewSource(1)), src, dst, dcs, c.coupling, c.alg, spec, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
