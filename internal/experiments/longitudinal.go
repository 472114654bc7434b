package experiments

import (
	"fmt"
	"sort"
	"time"

	"cronets/internal/core"
	"cronets/internal/stats"
	"cronets/internal/topology"
)

// LongitudinalConfig parameterizes the Section IV experiment. Defaults
// match the paper: the 30 most-improved paths, 50 samples at a 3-hour
// interval (longitudinalInterval) over a week.
type LongitudinalConfig struct {
	TopPaths int
	Samples  int
}

// DefaultLongitudinalConfig returns the paper's setup.
func DefaultLongitudinalConfig() LongitudinalConfig {
	return LongitudinalConfig{TopPaths: 30, Samples: 50}
}

const (
	// longitudinalInterval spaces the Section IV samples.
	longitudinalInterval = 3 * time.Hour
	// longitudinalStart is the first sample time (after the transient
	// event).
	longitudinalStart = transientEventEnd + time.Hour
	// minNodesTolerancePct is Figure 7's "as good as the best" tolerance.
	minNodesTolerancePct = 5
)

// LongitudinalPath is one of the tracked paths with its per-sample
// measurements.
type LongitudinalPath struct {
	// Index is the paper's path index (1 = largest improvement in the
	// original controlled measurement).
	Index int
	// Src and Dst identify the pair.
	Src, Dst topology.Host
	// DirectMbps holds one direct-path throughput per sample.
	DirectMbps []float64
	// OverlayMbps[dc][sample] holds the split-overlay throughput through
	// each overlay DC, per sample.
	OverlayMbps map[string][]float64
	// DCs lists the overlay DC cities in a deterministic order.
	DCs []string
}

// MaxOverlayPerSample returns, per sample, the maximum split-overlay
// throughput across the DCs (the right bars of Figure 6).
func (p LongitudinalPath) MaxOverlayPerSample() []float64 {
	out := make([]float64, len(p.DirectMbps))
	for _, dc := range p.DCs {
		for i, v := range p.OverlayMbps[dc] {
			if i < len(out) && v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// Fig6Row is one bar pair of Figure 6.
type Fig6Row struct {
	Index          int
	DirectMean     float64
	DirectStd      float64
	OverlayMean    float64
	OverlayStd     float64
	AvgImprovement float64 // mean over samples of max-overlay/direct
}

// LongitudinalResult holds the Section IV outputs.
type LongitudinalResult struct {
	Paths []LongitudinalPath
	// Rows are the Figure 6 bars, ordered by path index.
	Rows []Fig6Row
	// MinOverlayNodes is Figure 7: per path index, the minimum number of
	// overlay nodes needed to stay within tolerance of the best observed
	// throughput in every sample.
	MinOverlayNodes []int
	// NodeCountRows is Table I: for each overlay-node budget k, the mean
	// and median (across paths) of the per-path average improvement
	// factors achievable with the best k-subset of overlay nodes.
	NodeCountRows []NodeCountRow
}

// NodeCountRow is one row of Table I.
type NodeCountRow struct {
	Nodes        int
	MeanFactor   float64
	MedianFactor float64
}

// FracImproved returns the fraction of tracked paths whose average
// improvement exceeds 1 (paper: 90% of the 30 paths).
func (r LongitudinalResult) FracImproved() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.AvgImprovement > 1 {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// ImprovementStats returns the mean and median of the per-path average
// improvement ratios over the improved paths (paper: 8.39 and 7.58).
func (r LongitudinalResult) ImprovementStats() (mean, median float64) {
	var xs []float64
	for _, row := range r.Rows {
		if row.AvgImprovement > 1 {
			xs = append(xs, row.AvgImprovement)
		}
	}
	m, _ := stats.MeanFinite(xs)
	return m, stats.Median(xs)
}

// FracNeedingAtMost returns the fraction of paths needing at most k
// overlay nodes (paper: 70% with k=2).
func (r LongitudinalResult) FracNeedingAtMost(k int) float64 {
	if len(r.MinOverlayNodes) == 0 {
		return 0
	}
	n := 0
	for _, m := range r.MinOverlayNodes {
		if m <= k {
			n++
		}
	}
	return float64(n) / float64(len(r.MinOverlayNodes))
}

// RunLongitudinal reproduces Section IV: select the TopPaths controlled
// pairs with the highest split-overlay improvement, then resample direct
// and per-DC split-overlay throughput Samples times, longitudinalInterval
// apart, starting after the transient event window (so the event-affected
// paths saturate, as the paper observed for its indexes 1, 2 and 4).
func (s *Suite) RunLongitudinal(controlled PrevalenceResult, cfg LongitudinalConfig) (LongitudinalResult, error) {
	if cfg.TopPaths <= 0 || cfg.Samples <= 0 {
		return LongitudinalResult{}, fmt.Errorf("experiments: longitudinal config needs paths and samples")
	}
	type ranked struct {
		pr    core.PairResult
		ratio float64
	}
	var cands []ranked
	for _, pr := range controlled.Pairs {
		best, ok := pr.BestOverlay(core.SplitOverlay)
		if !ok || pr.Direct.ThroughputMbps <= 0 {
			continue
		}
		cands = append(cands, ranked{pr, best.ThroughputMbps / pr.Direct.ThroughputMbps})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].ratio > cands[j].ratio })
	if len(cands) > cfg.TopPaths {
		cands = cands[:cfg.TopPaths]
	}

	spec := defaultControlledSpec()
	var out LongitudinalResult
	for idx, c := range cands {
		src, dst := c.pr.Src, c.pr.Dst
		dcs := make([]string, 0, len(c.pr.Overlays))
		for _, o := range c.pr.Overlays {
			dcs = append(dcs, o.DC)
		}
		lp := LongitudinalPath{
			Index:       idx + 1,
			Src:         src,
			Dst:         dst,
			OverlayMbps: make(map[string][]float64, len(dcs)),
			DCs:         dcs,
		}
		for sample := 0; sample < cfg.Samples; sample++ {
			at := longitudinalStart + time.Duration(sample)*longitudinalInterval
			rng := s.rngFor("longitudinal", idx*10_000+sample)
			direct, _, err := s.CN.MeasureDirect(rng, src, dst, spec, at)
			if err != nil {
				return LongitudinalResult{}, fmt.Errorf("experiments: longitudinal direct %d: %w", idx, err)
			}
			lp.DirectMbps = append(lp.DirectMbps, direct.ThroughputMbps)
			for _, dc := range dcs {
				om, err := s.CN.MeasureOverlay(rng, src, dst, dc, spec, at)
				if err != nil {
					return LongitudinalResult{}, fmt.Errorf("experiments: longitudinal overlay %d via %s: %w", idx, dc, err)
				}
				lp.OverlayMbps[dc] = append(lp.OverlayMbps[dc], om.Split.ThroughputMbps)
			}
		}
		out.Paths = append(out.Paths, lp)
		out.Rows = append(out.Rows, fig6Row(lp))
		out.MinOverlayNodes = append(out.MinOverlayNodes, minOverlayNodes(lp, minNodesTolerancePct))
	}
	out.NodeCountRows = nodeCountRows(out.Paths)
	return out, nil
}

func fig6Row(p LongitudinalPath) Fig6Row {
	maxOv := p.MaxOverlayPerSample()
	var ratios []float64
	for i := range p.DirectMbps {
		ratios = append(ratios, stats.ImprovementRatio(maxOv[i], p.DirectMbps[i]))
	}
	mean, _ := stats.MeanFinite(ratios)
	return Fig6Row{
		Index:          p.Index,
		DirectMean:     stats.Mean(p.DirectMbps),
		DirectStd:      stats.StdDev(p.DirectMbps),
		OverlayMean:    stats.Mean(maxOv),
		OverlayStd:     stats.StdDev(maxOv),
		AvgImprovement: mean,
	}
}

// minOverlayNodes finds the smallest subset of overlay DCs that achieves,
// in every sample, at least (1 - tolerancePct/100) of the best observed
// throughput across all DCs for that sample. Subsets are enumerated
// exhaustively (there are at most 2^8 of them).
func minOverlayNodes(p LongitudinalPath, tolerancePct float64) int {
	nDC := len(p.DCs)
	if nDC == 0 {
		return 0
	}
	samples := len(p.DirectMbps)
	best := make([]float64, samples)
	perDC := make([][]float64, nDC)
	for d, dc := range p.DCs {
		perDC[d] = p.OverlayMbps[dc]
		for i, v := range perDC[d] {
			if i < samples && v > best[i] {
				best[i] = v
			}
		}
	}
	tol := 1 - tolerancePct/100
	for size := 1; size <= nDC; size++ {
		for mask := 1; mask < 1<<nDC; mask++ {
			if popcount(mask) != size {
				continue
			}
			ok := true
			for i := 0; i < samples && ok; i++ {
				subsetBest := 0.0
				for d := 0; d < nDC; d++ {
					if mask&(1<<d) != 0 && i < len(perDC[d]) && perDC[d][i] > subsetBest {
						subsetBest = perDC[d][i]
					}
				}
				if subsetBest < best[i]*tol {
					ok = false
				}
			}
			if ok {
				return size
			}
		}
	}
	return nDC
}

// nodeCountRows builds Table I: for k = 1..#DCs, pick for each path the
// k-subset of overlay nodes with the highest average of per-sample subset
// maxima, compute that path's average improvement factor, then report the
// mean and median across paths.
func nodeCountRows(paths []LongitudinalPath) []NodeCountRow {
	if len(paths) == 0 {
		return nil
	}
	nDC := len(paths[0].DCs)
	rows := make([]NodeCountRow, 0, nDC)
	for k := 1; k <= nDC; k++ {
		var factors []float64
		for _, p := range paths {
			factors = append(factors, bestSubsetFactor(p, k))
		}
		mean, _ := stats.MeanFinite(factors)
		rows = append(rows, NodeCountRow{Nodes: k, MeanFactor: mean, MedianFactor: stats.Median(factors)})
	}
	return rows
}

func bestSubsetFactor(p LongitudinalPath, k int) float64 {
	nDC := len(p.DCs)
	samples := len(p.DirectMbps)
	perDC := make([][]float64, nDC)
	for d, dc := range p.DCs {
		perDC[d] = p.OverlayMbps[dc]
	}
	bestAvg := 0.0
	bestFactor := 0.0
	for mask := 1; mask < 1<<nDC; mask++ {
		if popcount(mask) != k {
			continue
		}
		var sum float64
		var ratios []float64
		for i := 0; i < samples; i++ {
			subsetBest := 0.0
			for d := 0; d < nDC; d++ {
				if mask&(1<<d) != 0 && i < len(perDC[d]) && perDC[d][i] > subsetBest {
					subsetBest = perDC[d][i]
				}
			}
			sum += subsetBest
			ratios = append(ratios, stats.ImprovementRatio(subsetBest, p.DirectMbps[i]))
		}
		if sum > bestAvg {
			bestAvg = sum
			mean, _ := stats.MeanFinite(ratios)
			bestFactor = mean
		}
	}
	return bestFactor
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
