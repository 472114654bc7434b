package experiments

import (
	"fmt"
	"sort"
	"time"

	"cronets/internal/core"
	"cronets/internal/stats"
	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// MPTCPConfig parameterizes the Section VI validation. Defaults match the
// paper: 9 servers, 72 ordered pairs, focus on the 15 worst direct paths,
// 5 iterations of a 1-minute iperf run (mptcpRunLength) at 6-hour
// intervals (mptcpInterval).
type MPTCPConfig struct {
	WorstPaths int
	Iterations int
	// Coupling selects the congestion coupling (OLIA for Figure 12,
	// Uncoupled for Figure 13).
	Coupling tcpsim.Coupling
	// Alg is the per-subflow algorithm (Cubic for the uncoupled runs).
	Alg tcpsim.Algorithm
}

const (
	// mptcpInterval spaces the iterations of the Section VI runs.
	mptcpInterval = 6 * time.Hour
	// mptcpRunLength is one iperf run's length.
	mptcpRunLength = time.Minute
)

// DefaultMPTCPConfig returns the Figure 12 setup (OLIA).
func DefaultMPTCPConfig() MPTCPConfig {
	return MPTCPConfig{
		WorstPaths: 15,
		Iterations: 5,
		Coupling:   tcpsim.OLIA,
		Alg:        tcpsim.Reno,
	}
}

// UncoupledMPTCPConfig returns the Figure 13 setup (per-subflow CUBIC).
func UncoupledMPTCPConfig() MPTCPConfig {
	cfg := DefaultMPTCPConfig()
	cfg.Coupling = tcpsim.Uncoupled
	cfg.Alg = tcpsim.Cubic
	return cfg
}

// MPTCPRow is one path index of Figures 12/13: the four bars with their
// across-iteration means and standard deviations.
type MPTCPRow struct {
	Index    int
	Src, Dst string

	DirectMean, DirectStd   float64
	OverlayMean, OverlayStd float64 // max plain overlay across DCs
	SplitMean, SplitStd     float64 // max split overlay across DCs
	MPTCPMean, MPTCPStd     float64
}

// MPTCPResult holds the Section VI outputs.
type MPTCPResult struct {
	Rows []MPTCPRow
	// PairsMeasured is the number of server pairs measured to pick the
	// worst paths (paper: 72).
	PairsMeasured int
}

// FracMPTCPAtLeastBestOverlay returns the fraction of rows where the mean
// MPTCP throughput reaches at least (1-tol) of the max plain-overlay mean —
// the paper's claim that coupled MPTCP tracks the best available path
// without probing.
func (r MPTCPResult) FracMPTCPAtLeastBestOverlay(tol float64) float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		ref := row.OverlayMean
		if row.DirectMean > ref {
			ref = row.DirectMean
		}
		if row.MPTCPMean >= ref*(1-tol) {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// MeanMPTCP returns the mean MPTCP throughput across rows (for Figure 13
// this should approach the NIC rate).
func (r MPTCPResult) MeanMPTCP() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.MPTCPMean)
	}
	return stats.Mean(xs)
}

// RunMPTCP reproduces Figures 12/13 on an MPTCP suite (9 data centers):
// measure all ordered DC pairs' direct throughput, keep the WorstPaths
// lowest, and for each run the four configurations per iteration.
func (s *Suite) RunMPTCP(cfg MPTCPConfig) (MPTCPResult, error) {
	dcs := s.CN.DCCities()
	if len(dcs) < 3 {
		return MPTCPResult{}, fmt.Errorf("experiments: mptcp needs at least 3 DCs, got %d", len(dcs))
	}
	spec := tcpsim.Spec{Duration: mptcpRunLength}

	// Rank ordered pairs by direct throughput at the first sample time.
	type pair struct {
		src, dst topology.Host
		direct   float64
	}
	var pairs []pair
	idx := 0
	for _, a := range dcs {
		for _, b := range dcs {
			if a == b {
				continue
			}
			src, dst := s.In.DCs[a], s.In.DCs[b]
			m, _, err := s.CN.MeasureDirect(s.rngFor("mptcp-rank", idx), src, dst, spec, transientEventEnd)
			if err != nil {
				return MPTCPResult{}, fmt.Errorf("experiments: mptcp rank %s->%s: %w", a, b, err)
			}
			idx++
			pairs = append(pairs, pair{src, dst, m.ThroughputMbps})
		}
	}
	out := MPTCPResult{PairsMeasured: len(pairs)}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].direct < pairs[j].direct })
	if len(pairs) > cfg.WorstPaths {
		pairs = pairs[:cfg.WorstPaths]
	}

	for pi, p := range pairs {
		overlayDCs := make([]string, 0, len(dcs)-2)
		for _, dc := range dcs {
			if s.In.DCs[dc].Node != p.src.Node && s.In.DCs[dc].Node != p.dst.Node {
				overlayDCs = append(overlayDCs, dc)
			}
		}
		var direct, overlay, split, mptcp []float64
		for it := 0; it < cfg.Iterations; it++ {
			at := transientEventEnd + time.Duration(it)*mptcpInterval
			rng := s.rngFor("mptcp-run", pi*1000+it)
			pr, err := s.CN.MeasurePair(rng, p.src, p.dst, overlayDCs, spec, at)
			if err != nil {
				return MPTCPResult{}, fmt.Errorf("experiments: mptcp pair %s->%s: %w", p.src.Name, p.dst.Name, err)
			}
			direct = append(direct, pr.Direct.ThroughputMbps)
			if m, ok := pr.BestOverlay(core.Overlay); ok {
				overlay = append(overlay, m.ThroughputMbps)
			}
			if m, ok := pr.BestOverlay(core.SplitOverlay); ok {
				split = append(split, m.ThroughputMbps)
			}
			mp, err := s.CN.MeasureMPTCP(rng, p.src, p.dst, overlayDCs,
				cfg.Coupling, cfg.Alg, spec, at)
			if err != nil {
				return MPTCPResult{}, fmt.Errorf("experiments: mptcp run %s->%s: %w", p.src.Name, p.dst.Name, err)
			}
			mptcp = append(mptcp, mp.TotalMbps)
		}
		out.Rows = append(out.Rows, MPTCPRow{
			Index: pi + 1, Src: p.src.Name, Dst: p.dst.Name,
			DirectMean: stats.Mean(direct), DirectStd: stats.StdDev(direct),
			OverlayMean: stats.Mean(overlay), OverlayStd: stats.StdDev(overlay),
			SplitMean: stats.Mean(split), SplitStd: stats.StdDev(split),
			MPTCPMean: stats.Mean(mptcp), MPTCPStd: stats.StdDev(mptcp),
		})
	}
	return out, nil
}
