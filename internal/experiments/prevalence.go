package experiments

import (
	"fmt"

	"cronets/internal/core"
	"cronets/internal/stats"
)

// PrevalenceResult holds the large-scale path-prevalence measurement: every
// pair's full measurement plus the derived improvement-ratio samples.
type PrevalenceResult struct {
	// Pairs holds the per-pair measurements.
	Pairs []core.PairResult
	// PlainRatios and SplitRatios are max-overlay/direct throughput ratios
	// per pair, for the plain tunnel and split-TCP configurations.
	PlainRatios []float64
	SplitRatios []float64
	// DiscreteRatios is only populated by the controlled experiment.
	DiscreteRatios []float64
	// PathsSampled counts every measured path (direct plus overlays).
	PathsSampled int
}

// PlainSummary returns the Figure 2/3 statistics for the plain tunnel.
func (r PrevalenceResult) PlainSummary() RatioSummary { return SummarizeRatios(r.PlainRatios) }

// SplitSummary returns the Figure 2/3 statistics for the split overlay.
func (r PrevalenceResult) SplitSummary() RatioSummary { return SummarizeRatios(r.SplitRatios) }

// DiscreteSummary returns the Figure 3 statistics for the discrete bound.
func (r PrevalenceResult) DiscreteSummary() RatioSummary { return SummarizeRatios(r.DiscreteRatios) }

// PlainCDF returns the empirical CDF of plain-overlay improvement ratios
// (the solid curve of Figure 2).
func (r PrevalenceResult) PlainCDF() *stats.CDF { return stats.NewCDF(stats.Finite(r.PlainRatios)) }

// SplitCDF returns the empirical CDF of split-overlay improvement ratios
// (the dashed curve of Figure 2).
func (r PrevalenceResult) SplitCDF() *stats.CDF { return stats.NewCDF(stats.Finite(r.SplitRatios)) }

// RunRealLife reproduces the Section III-A experiment behind Figure 2:
// every client downloads a 100 MB file from every real-life server, over
// the direct path and through each of the overlay data centers (plain and
// split). With the paper's full scale (110 clients x 10 servers x (1 direct
// + 5 overlay paths)) this samples 6,600 paths.
func (s *Suite) RunRealLife() (PrevalenceResult, error) {
	spec := defaultRealLifeSpec()
	dcs := s.CN.DCCities()
	var out PrevalenceResult
	idx := 0
	for _, server := range s.In.Servers {
		for _, client := range s.In.Clients {
			pr, err := s.CN.MeasurePair(s.rngFor("real-life", idx), server, client, dcs, spec, 0)
			if err != nil {
				return PrevalenceResult{}, fmt.Errorf("experiments: real-life %s->%s: %w",
					server.Name, client.Name, err)
			}
			idx++
			out.addPair(pr, false)
		}
	}
	return out, nil
}

// RunControlled reproduces the Section III-B experiment behind Figures 3-5
// and the Section V analyses: each cloud data center acts as the TCP sender
// toward every client, with the remaining data centers as overlay nodes,
// using 30-second iperf-style runs. With the paper's full scale this
// samples 50 clients x 5 senders x (1 direct + 4 overlay) = 1,250 paths.
func (s *Suite) RunControlled() (PrevalenceResult, error) {
	spec := defaultControlledSpec()
	dcs := s.CN.DCCities()
	var out PrevalenceResult
	idx := 0
	// The paper uses 50 of the PlanetLab clients for the controlled stage.
	clients := s.In.Clients
	if len(clients) > 50 {
		clients = clients[:50]
	}
	for _, senderCity := range dcs {
		sender := s.In.DCs[senderCity]
		overlays := otherDCs(dcs, senderCity)
		for _, client := range clients {
			pr, err := s.CN.MeasurePair(s.rngFor("controlled", idx), sender, client, overlays, spec, 0)
			if err != nil {
				return PrevalenceResult{}, fmt.Errorf("experiments: controlled %s->%s: %w",
					sender.Name, client.Name, err)
			}
			idx++
			out.addPair(pr, true)
		}
	}
	return out, nil
}

func (r *PrevalenceResult) addPair(pr core.PairResult, withDiscrete bool) {
	r.Pairs = append(r.Pairs, pr)
	r.PathsSampled += 1 + len(pr.Overlays)
	if plain, ok := pr.BestOverlay(core.Overlay); ok {
		r.PlainRatios = append(r.PlainRatios,
			stats.ImprovementRatio(plain.ThroughputMbps, pr.Direct.ThroughputMbps))
	}
	if split, ok := pr.BestOverlay(core.SplitOverlay); ok {
		r.SplitRatios = append(r.SplitRatios,
			stats.ImprovementRatio(split.ThroughputMbps, pr.Direct.ThroughputMbps))
	}
	if withDiscrete {
		if disc, ok := pr.BestOverlay(core.DiscreteOverlay); ok {
			r.DiscreteRatios = append(r.DiscreteRatios,
				stats.ImprovementRatio(disc.ThroughputMbps, pr.Direct.ThroughputMbps))
		}
	}
}

func otherDCs(dcs []string, exclude string) []string {
	out := make([]string, 0, len(dcs)-1)
	for _, dc := range dcs {
		if dc != exclude {
			out = append(out, dc)
		}
	}
	return out
}
