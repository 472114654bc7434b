package tcpsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"cronets/internal/netsim"
)

// mptcpConfig is the paper's set-up for a coupling and subflow algorithm:
// standard flow parameters, a shared 100 Mbps NIC and a connection receive
// window of two flows' windows.
func mptcpConfig(c Coupling, alg Algorithm) MPTCPConfig {
	flow := DefaultConfig()
	flow.Alg = alg
	return MPTCPConfig{Flow: flow, Coupling: c, SharedAccessMbps: 100, ConnRwndPkts: 2 * flow.MaxCwnd}
}

func staticPaths(ms ...netsim.Metrics) []PathFunc {
	paths := make([]PathFunc, len(ms))
	for i, m := range ms {
		paths[i] = StaticPath(m)
	}
	return paths
}

func runMPTCP(t *testing.T, paths []PathFunc, cfg MPTCPConfig) MPTCPResult {
	t.Helper()
	res, err := RunMPTCP(rand.New(rand.NewSource(1)), paths, cfg, Spec{Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func singlePath(t *testing.T, p PathFunc, alg Algorithm) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Alg = alg
	res, err := Run(rand.New(rand.NewSource(1)), p, cfg, Spec{Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return res.ThroughputMbps
}

func TestMPTCPValidation(t *testing.T) {
	if _, err := RunMPTCP(rand.New(rand.NewSource(1)), nil, mptcpConfig(OLIA, Cubic), Spec{Duration: time.Second}); err == nil {
		t.Error("expected error for no paths")
	}
	if _, err := RunMPTCP(rand.New(rand.NewSource(1)), staticPaths(metrics(50, 0, 100)),
		mptcpConfig(OLIA, Cubic), Spec{}); err == nil {
		t.Error("expected error for missing duration")
	}
}

// TestRunMPTCPRejectsByteLimit: a byte limit is refused, not ignored in
// favour of the spec's Duration.
func TestRunMPTCPRejectsByteLimit(t *testing.T) {
	_, err := RunMPTCP(rand.New(rand.NewSource(1)), staticPaths(metrics(50, 0, 100)),
		mptcpConfig(OLIA, Reno), Spec{Duration: time.Second, TransferBytes: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "TransferBytes") {
		t.Errorf("err = %v, want an error naming TransferBytes", err)
	}
}

// TestRunMPTCPRejectsUnknownCoupling: a coupling that is none of the three
// modes, such as the zero value, is refused rather than run as a mix of
// them.
func TestRunMPTCPRejectsUnknownCoupling(t *testing.T) {
	for _, c := range []Coupling{0, Uncoupled + 1} {
		_, err := RunMPTCP(rand.New(rand.NewSource(1)), staticPaths(metrics(50, 0, 100)),
			mptcpConfig(c, Cubic), Spec{Duration: time.Second})
		if err == nil || !strings.Contains(err.Error(), "Coupling") {
			t.Errorf("%v: err = %v, want an error naming Coupling", c, err)
		}
	}
}

// TestCoupledTracksBestPath: with OLIA/LIA coupling, the aggregate should
// be at least the best single path's throughput and well below the sum of
// all paths.
func TestCoupledTracksBestPath(t *testing.T) {
	paths := staticPaths(
		metrics(200, 2e-3, 100), // bad
		metrics(120, 1e-4, 100), // best
		metrics(250, 1e-3, 100), // mediocre
	)
	// LIA/OLIA target the throughput of a single Reno-style TCP flow on
	// the best available path; compare against that baseline.
	best := singlePath(t, paths[1], Reno)
	for _, coupling := range []Coupling{LIA, OLIA} {
		res := runMPTCP(t, paths, mptcpConfig(coupling, Reno))
		if res.TotalMbps < best*0.8 {
			t.Errorf("%v: total %v below best path %v", coupling, res.TotalMbps, best)
		}
		if res.TotalMbps > 100 {
			t.Errorf("%v: total %v exceeds NIC", coupling, res.TotalMbps)
		}
	}
}

// TestUncoupledAggregates: uncoupled subflows should sum well past the
// best single path, up to the shared NIC.
func TestUncoupledAggregates(t *testing.T) {
	paths := staticPaths(metrics(100, 1e-4, 100), metrics(120, 1e-4, 100), metrics(140, 1e-4, 100))
	best := singlePath(t, paths[0], Cubic)
	cfg := mptcpConfig(Uncoupled, Cubic)
	cfg.ConnRwndPkts = 0
	res := runMPTCP(t, paths, cfg)
	if res.TotalMbps < best*1.3 {
		t.Errorf("uncoupled total %v should clearly exceed best path %v", res.TotalMbps, best)
	}
	if res.TotalMbps > 105 {
		t.Errorf("uncoupled total %v exceeds the 100 Mbps NIC", res.TotalMbps)
	}
}

// TestNICSharing: the shared access cap binds the aggregate.
func TestNICSharing(t *testing.T) {
	paths := staticPaths(metrics(30, 0, 1000), metrics(40, 0, 1000), metrics(50, 0, 1000))
	cfg := mptcpConfig(Uncoupled, Cubic)
	cfg.SharedAccessMbps = 50
	cfg.ConnRwndPkts = 0
	res := runMPTCP(t, paths, cfg)
	if res.TotalMbps > 60 {
		t.Errorf("total %v exceeds 50 Mbps shared NIC", res.TotalMbps)
	}
}

// TestMPTCPFailover: a path that dies (100% loss) must not sink the
// connection; the survivors carry it.
func TestMPTCPFailover(t *testing.T) {
	good := StaticPath(metrics(80, 1e-4, 100))
	dead := StaticPath(metrics(80, 1, 100))
	res := runMPTCP(t, []PathFunc{good, dead}, mptcpConfig(OLIA, Cubic))
	aloneRes := singlePath(t, good, Cubic)
	if res.TotalMbps < aloneRes*0.6 {
		t.Errorf("with one dead path: %v, good path alone: %v", res.TotalMbps, aloneRes)
	}
	if res.SubflowMbps[1] > 0.5 {
		t.Errorf("dead subflow carried %v Mbps", res.SubflowMbps[1])
	}
}

// TestConnRwndCapsAggregate: the connection-level receive window bounds
// total in-flight data across subflows.
func TestConnRwndCapsAggregate(t *testing.T) {
	paths := staticPaths(metrics(100, 0, 1000), metrics(100, 0, 1000))
	cfg := mptcpConfig(Uncoupled, Cubic)
	cfg.SharedAccessMbps = 0
	cfg.ConnRwndPkts = 200 // 200 pkts at 100ms -> ~23 Mbps
	res := runMPTCP(t, paths, cfg)
	if res.TotalMbps > 30 {
		t.Errorf("total %v exceeds the connection rwnd cap (~23 Mbps)", res.TotalMbps)
	}
}

func TestSubflowBreakdownSums(t *testing.T) {
	paths := staticPaths(metrics(60, 1e-4, 100), metrics(90, 1e-4, 100))
	res := runMPTCP(t, paths, mptcpConfig(OLIA, Cubic))
	var sum float64
	for _, s := range res.SubflowMbps {
		if s < 0 {
			t.Fatalf("negative subflow rate: %v", res.SubflowMbps)
		}
		sum += s
	}
	if diff := sum - res.TotalMbps; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("subflow sum %v != total %v", sum, res.TotalMbps)
	}
}

func TestCouplingString(t *testing.T) {
	if LIA.String() != "lia" || OLIA.String() != "olia" || Uncoupled.String() != "uncoupled" {
		t.Error("coupling names wrong")
	}
	if Coupling(99).String() == "" {
		t.Error("unknown coupling should still render")
	}
}

func TestMPTCPDeterminism(t *testing.T) {
	paths := staticPaths(metrics(60, 1e-4, 100), metrics(90, 2e-4, 100))
	spec := Spec{Duration: 20 * time.Second}
	a, err := RunMPTCP(rand.New(rand.NewSource(7)), paths, mptcpConfig(OLIA, Cubic), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMPTCP(rand.New(rand.NewSource(7)), paths, mptcpConfig(OLIA, Cubic), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMbps != b.TotalMbps {
		t.Error("same seed produced different results")
	}
}
