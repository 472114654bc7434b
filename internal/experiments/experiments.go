// Package experiments contains one runner per table and figure of the
// paper's evaluation, driving the simulation substrate with the same
// workloads (scaled to the paper's sizes) and producing the same rows and
// series. cmd/cronets-bench and the repository benchmarks call into this
// package.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cronets/internal/core"
	"cronets/internal/netsim"
	"cronets/internal/stats"
	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// Scale selects the workload size: Full reproduces the paper's numbers;
// Small keeps unit tests fast.
type Scale int

// Workload scales.
const (
	ScaleFull Scale = iota + 1
	ScaleSmall
)

// Suite binds a generated Internet, the CRONet on top of it, and the
// experiment seed. All experiment runners hang off it.
type Suite struct {
	In   *topology.Internet
	CN   *core.CRONet
	Seed int64

	// eventClient is the client whose direct paths suffer a transient
	// intermediate-ISP congestion event during the controlled measurement
	// window (the mechanism the paper invokes for longitudinal path
	// indexes 1, 2 and 4).
	eventClient topology.Host
}

// transientEventEnd is when the injected intermediate-ISP event clears.
// Controlled measurements run at time 0 (inside the event); longitudinal
// samples start after it.
const transientEventEnd = 2 * time.Hour

// NewSuite generates the topology and CRONet for the experiments.
func NewSuite(seed int64, scale Scale) (*Suite, error) {
	return newSuite(seed, suiteTopologyConfig(seed, scale))
}

// NewSuiteFromTopology builds a suite over a custom topology configuration
// (ablation studies tweak link parameters and rerun the experiments).
func NewSuiteFromTopology(seed int64, cfg topology.Config) (*Suite, error) {
	return newSuite(seed, cfg)
}

// suiteTopologyConfig returns the standard experiment topology at the
// given scale, for runners that need to tweak it (e.g. the Section VII-C
// high-bandwidth study).
func suiteTopologyConfig(seed int64, scale Scale) topology.Config {
	cfg := topology.DefaultConfig(seed)
	if scale == ScaleSmall {
		cfg.ClientStubs = 16
		cfg.ServerStubs = 4
	}
	return cfg
}

// NewMPTCPSuite generates the 9-data-center topology of the paper's
// Section VI validation.
func NewMPTCPSuite(seed int64, scale Scale) (*Suite, error) {
	cfg := topology.DefaultConfig(seed)
	cfg.CloudDCCities = []string{
		"WashingtonDC", "SanJose", "Dallas", "Amsterdam", "Tokyo",
		"London", "Singapore", "Sydney", "SaoPaulo",
	}
	if scale == ScaleSmall {
		cfg.ClientStubs = 8
		cfg.ServerStubs = 2
		cfg.CloudDCCities = cfg.CloudDCCities[:5]
	}
	return newSuite(seed, cfg)
}

func newSuite(seed int64, cfg topology.Config) (*Suite, error) {
	in, err := topology.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate topology: %w", err)
	}
	s := &Suite{
		In:   in,
		CN:   core.New(in, core.DefaultConfig()),
		Seed: seed,
	}
	s.injectTransientEvent()
	return s, nil
}

// injectTransientEvent puts a strong congestion event, active only during
// the controlled-measurement window, on the provider-side links of one
// deterministic client. Direct paths toward that client measure terribly at
// time 0 and recover afterwards — reproducing the paper's observation that
// its largest-improvement paths were transient victims.
func (s *Suite) injectTransientEvent() {
	if len(s.In.Clients) == 0 {
		return
	}
	s.eventClient = s.In.Clients[len(s.In.Clients)/3]
	// Congest the middle link of the default route from each sender
	// toward the event client: an intermediate-ISP event the overlay
	// detours around, exactly the scenario the paper describes.
	seen := make(map[[2]netsim.NodeID]bool)
	// Only the cloud senders' routes: the longitudinal experiment tracks
	// controlled (DC-sender) pairs, and hitting more routes would bleed
	// the event into unrelated pairs' middles.
	senders := make([]topology.Host, 0, len(s.In.DCOrder))
	for _, city := range s.In.DCOrder {
		senders = append(senders, s.In.DCs[city])
	}
	for _, from := range senders {
		p, err := s.In.RouterPath(from, s.eventClient)
		if err != nil || len(p.Nodes) < 6 {
			continue
		}
		// Hit the provider-internal link two hops before the client's stub
		// router: far enough in that overlays entering the region
		// elsewhere bypass it, close enough out that few other pairs'
		// routes share it.
		i := len(p.Nodes) - 4
		a, b := p.Nodes[i], p.Nodes[i+1]
		if a > b {
			a, b = b, a
		}
		if seen[[2]netsim.NodeID{a, b}] {
			continue
		}
		seen[[2]netsim.NodeID{a, b}] = true
		if l, ok := s.In.Net.Link(a, b); ok {
			l.AddEvent(netsim.CongestionEvent{
				Start:            0,
				End:              transientEventEnd,
				ExtraUtilization: 0.18,
				ExtraLoss:        0.004,
			})
		}
	}
}

// EventClient returns the client targeted by the injected transient event.
func (s *Suite) EventClient() topology.Host { return s.eventClient }

// RatioSummary condenses a set of improvement ratios into the statistics
// the paper reports for each CDF curve.
type RatioSummary struct {
	// N is the number of pairs summarized.
	N int
	// FracImproved is the fraction of ratios > 1.
	FracImproved float64
	// FracAtLeast25 is the fraction of ratios >= 1.25.
	FracAtLeast25 float64
	// Mean is the mean ratio over finite samples.
	Mean float64
	// Median is the median ratio.
	Median float64
}

// SummarizeRatios computes the summary of a ratio sample.
func SummarizeRatios(rs []float64) RatioSummary {
	mean, _ := stats.MeanFinite(rs)
	return RatioSummary{
		N:             len(rs),
		FracImproved:  stats.FractionAbove(rs, 1),
		FracAtLeast25: 1 - stats.NewCDF(rs).At(1.25) + fracEqual(rs, 1.25),
		Mean:          mean,
		Median:        stats.Median(stats.Finite(rs)),
	}
}

func fracEqual(rs []float64, v float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	n := 0
	for _, r := range rs {
		if r == v {
			n++
		}
	}
	return float64(n) / float64(len(rs))
}

// String renders the summary as a one-line report.
func (r RatioSummary) String() string {
	return fmt.Sprintf("n=%d improved=%.0f%% >=1.25x=%.0f%% mean=%.2f median=%.2f",
		r.N, r.FracImproved*100, r.FracAtLeast25*100, r.Mean, r.Median)
}

// rngFor derives a deterministic per-measurement RNG from the suite seed
// and a measurement index, so experiments are reproducible regardless of
// the order runners execute in.
func (s *Suite) rngFor(stream string, idx int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(s.Seed ^ h ^ int64(idx)*0x5851F42D4C957F2D))
}

// defaultControlledSpec is the paper's 30-second iperf run.
func defaultControlledSpec() tcpsim.Spec {
	return tcpsim.Spec{Duration: 30 * time.Second}
}

// defaultRealLifeSpec is the paper's 100 MB file download, capped at two
// minutes of simulated time so pathological paths terminate.
func defaultRealLifeSpec() tcpsim.Spec {
	return tcpsim.Spec{TransferBytes: 100 << 20, Duration: 2 * time.Minute}
}
