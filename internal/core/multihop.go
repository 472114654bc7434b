package core

import (
	"fmt"
	"math/rand"
	"time"

	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// MultiHopMeasurement is the result of a two-hop split overlay (the
// paper's Section VII-B extension): src -> DC1 -> DC2 -> dst with the TCP
// connection terminated at both relays, so three congestion-control loops
// each see roughly a third of the end-to-end RTT.
type MultiHopMeasurement struct {
	// DCs are the overlay hops in order.
	DCs []string
	// Split is the three-segment split-TCP measurement.
	Split Measurement
}

// MeasureTwoHop measures the two-hop split overlay src -> dc1 -> dc2 ->
// dst, one congestion-control loop per segment. The middle segment rides
// the provider's private backbone.
func (c *CRONet) MeasureTwoHop(rng *rand.Rand, src, dst topology.Host, dc1, dc2 string,
	spec tcpsim.Spec, at time.Duration) (MultiHopMeasurement, error) {

	if dc1 == dc2 {
		return MultiHopMeasurement{}, fmt.Errorf("core: two-hop overlay needs distinct DCs, got %q twice", dc1)
	}
	h1, ok := c.in.DCs[dc1]
	if !ok {
		return MultiHopMeasurement{}, fmt.Errorf("core: no data center in %q", dc1)
	}
	h2, ok := c.in.DCs[dc2]
	if !ok {
		return MultiHopMeasurement{}, fmt.Errorf("core: no data center in %q", dc2)
	}
	seg1Path, err := c.in.RouterPath(src, h1)
	if err != nil {
		return MultiHopMeasurement{}, fmt.Errorf("core: two-hop leg 1: %w", err)
	}
	seg2Path, err := c.in.RouterPath(h1, h2)
	if err != nil {
		return MultiHopMeasurement{}, fmt.Errorf("core: two-hop leg 2: %w", err)
	}
	seg3Path, err := c.in.RouterPath(h2, dst)
	if err != nil {
		return MultiHopMeasurement{}, fmt.Errorf("core: two-hop leg 3: %w", err)
	}
	seg1, err := c.pathFunc(seg1Path, at)
	if err != nil {
		return MultiHopMeasurement{}, err
	}
	seg2, err := c.pathFunc(seg2Path, at)
	if err != nil {
		return MultiHopMeasurement{}, err
	}
	seg3, err := c.pathFunc(seg3Path, at)
	if err != nil {
		return MultiHopMeasurement{}, err
	}

	split, err := tcpsim.RunSplitChain(rng, []tcpsim.PathFunc{seg1, seg2, seg3},
		tcpsim.SplitConfig{Flow: c.cfg.Flow, RelayBufferBytes: c.cfg.RelayBufferBytes}, spec)
	if err != nil {
		return MultiHopMeasurement{}, fmt.Errorf("core: two-hop split via %s,%s: %w", dc1, dc2, err)
	}
	return MultiHopMeasurement{
		DCs: []string{dc1, dc2},
		Split: Measurement{Kind: SplitOverlay, DC: dc1 + "+" + dc2,
			ThroughputMbps: split.ThroughputMbps, RetransRate: split.RetransRate, AvgRTT: split.AvgRTT},
	}, nil
}
