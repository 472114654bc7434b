// Package core implements the CRONets system itself: building one-hop
// overlay paths through cloud data centers on top of the topology substrate,
// measuring the four path configurations the paper compares (direct, plain
// tunnel overlay, split-TCP overlay, and the discrete upper bound), and
// selecting paths automatically with MPTCP.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cronets/internal/netsim"
	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// PathKind identifies one of the paper's four measured configurations
// (Section II).
type PathKind int

// Path kinds.
const (
	// Direct is the default Internet path as selected by BGP.
	Direct PathKind = iota + 1
	// Overlay tunnels through one overlay node that decapsulates, NATs and
	// forwards packets; a single TCP loop spans the whole detour.
	Overlay
	// SplitOverlay breaks the TCP connection at the overlay node, giving
	// each segment its own congestion-control loop.
	SplitOverlay
	// DiscreteOverlay measures the two segments separately; the minimum of
	// the two throughputs upper-bounds what the overlay path can achieve.
	DiscreteOverlay
)

// String returns the configuration name used in the paper's figures.
func (k PathKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Overlay:
		return "overlay"
	case SplitOverlay:
		return "split-overlay"
	case DiscreteOverlay:
		return "discrete-overlay"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// Measurement is one path measurement: the three metrics the paper reports.
type Measurement struct {
	Kind PathKind
	// DC is the overlay data-center city ("" for direct paths).
	DC string
	// ThroughputMbps is the measured TCP goodput.
	ThroughputMbps float64
	// RetransRate is the tstat-style retransmission rate.
	RetransRate float64
	// AvgRTT is the tstat-style average round-trip time.
	AvgRTT time.Duration
}

// OverlayMeasurements groups the three overlay configurations through one
// data center.
type OverlayMeasurements struct {
	DC       string
	Plain    Measurement
	Split    Measurement
	Discrete Measurement
	// Route is the overlay route used, retained for traceroute analysis.
	Route topology.OverlayRoute
}

// PairResult is the full measurement of one (source, destination) pair:
// the direct path plus every overlay option.
type PairResult struct {
	Src, Dst topology.Host
	Direct   Measurement
	// DirectPath is the default route, retained for traceroute analysis.
	DirectPath netsim.Path
	// Overlays holds one entry per overlay data center, in DC order.
	Overlays []OverlayMeasurements
}

// BestOverlay returns the overlay measurement of the given kind with the
// highest throughput, and false if there are no overlays.
func (p PairResult) BestOverlay(kind PathKind) (Measurement, bool) {
	var best Measurement
	found := false
	for _, o := range p.Overlays {
		m, ok := o.byKind(kind)
		if !ok {
			continue
		}
		if !found || m.ThroughputMbps > best.ThroughputMbps {
			best = m
			found = true
		}
	}
	return best, found
}

// MinOverlayRetrans returns the lowest retransmission rate across the plain
// overlay tunnels (the statistic of Figure 4), and false without overlays.
func (p PairResult) MinOverlayRetrans() (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, o := range p.Overlays {
		if o.Plain.RetransRate < best {
			best = o.Plain.RetransRate
			found = true
		}
	}
	return best, found
}

// MinOverlayRTT returns the lowest average RTT across the plain overlay
// tunnels (the statistic of Figure 5), and false without overlays.
func (p PairResult) MinOverlayRTT() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, o := range p.Overlays {
		if !found || o.Plain.AvgRTT < best {
			best = o.Plain.AvgRTT
			found = true
		}
	}
	return best, found
}

func (o OverlayMeasurements) byKind(kind PathKind) (Measurement, bool) {
	switch kind {
	case Overlay:
		return o.Plain, true
	case SplitOverlay:
		return o.Split, true
	case DiscreteOverlay:
		return o.Discrete, true
	default:
		return Measurement{}, false
	}
}

// Config holds the CRONet measurement parameters.
type Config struct {
	// Flow is the TCP configuration used by all measurements.
	Flow tcpsim.Config
	// RelayBufferBytes sizes the split proxy's relay buffer.
	RelayBufferBytes int64
	// TunnelHeaderBytes is the per-packet encapsulation overhead of the
	// GRE/IPsec tunnel in plain overlay mode, which shrinks the effective
	// MSS of the end-to-end connection.
	TunnelHeaderBytes int
	// RelayLossRate is the per-packet drop probability at the overlay VM
	// in tunnel mode: a single-core VM doing GRE decap + NAT rewrite +
	// re-encap in software drops packets under line-rate bursts. Split
	// mode does not pay this (TCP termination paces the relay).
	RelayLossRate float64
}

// DefaultConfig returns the measurement parameters used by the paper-scale
// experiments.
func DefaultConfig() Config {
	return Config{
		Flow:              tcpsim.DefaultConfig(),
		RelayBufferBytes:  4 << 20,
		TunnelHeaderBytes: 40, // GRE over IP
		RelayLossRate:     4e-5,
	}
}

const (
	// relayOverhead is the per-packet processing delay at an overlay node
	// in tunnel (non-split) mode.
	relayOverhead = 250 * time.Microsecond
	// nicMbps is the endpoint NIC that an MPTCP connection's subflows
	// share: the paper's 100 Mbps DC VM port.
	nicMbps = 100
)

// CRONet is a cloud-routed overlay network over a generated Internet: a set
// of overlay nodes (cloud data centers) plus the machinery to measure and
// select paths through them.
type CRONet struct {
	in  *topology.Internet
	cfg Config
}

// New builds a CRONet over the Internet topology.
func New(in *topology.Internet, cfg Config) *CRONet {
	return &CRONet{in: in, cfg: cfg}
}

// Internet returns the underlying topology.
func (c *CRONet) Internet() *topology.Internet { return c.in }

// DCCities returns the overlay data-center cities in deterministic order.
func (c *CRONet) DCCities() []string {
	return append([]string(nil), c.in.DCOrder...)
}

// pathFunc builds the time-varying metrics function for a route starting at
// simulation time `at`.
func (c *CRONet) pathFunc(p netsim.Path, at time.Duration) (tcpsim.PathFunc, error) {
	return tcpsim.NetworkPath(c.in.Net, p, at)
}

// MeasureDirect measures the default Internet path between two hosts.
func (c *CRONet) MeasureDirect(rng *rand.Rand, src, dst topology.Host,
	spec tcpsim.Spec, at time.Duration) (Measurement, netsim.Path, error) {

	path, err := c.in.RouterPath(src, dst)
	if err != nil {
		return Measurement{}, netsim.Path{}, fmt.Errorf("core: direct route: %w", err)
	}
	pf, err := c.pathFunc(path, at)
	if err != nil {
		return Measurement{}, netsim.Path{}, err
	}
	res, err := tcpsim.Run(rng, pf, c.cfg.Flow, spec)
	if err != nil {
		return Measurement{}, netsim.Path{}, fmt.Errorf("core: direct measurement: %w", err)
	}
	return Measurement{
		Kind:           Direct,
		ThroughputMbps: res.ThroughputMbps,
		RetransRate:    res.RetransRate,
		AvgRTT:         res.AvgRTT,
	}, path, nil
}

// MeasureOverlay measures the three overlay configurations through the data
// center in dcCity.
func (c *CRONet) MeasureOverlay(rng *rand.Rand, src, dst topology.Host, dcCity string,
	spec tcpsim.Spec, at time.Duration) (OverlayMeasurements, error) {

	route, err := c.in.OverlayRoute(src, dst, dcCity)
	if err != nil {
		return OverlayMeasurements{}, err
	}
	seg1, err := c.pathFunc(route.ToDC, at)
	if err != nil {
		return OverlayMeasurements{}, err
	}
	seg2, err := c.pathFunc(route.FromDC, at)
	if err != nil {
		return OverlayMeasurements{}, err
	}
	out := OverlayMeasurements{DC: dcCity, Route: route}

	// Plain tunnel: one TCP loop over the concatenated path, with the
	// effective MSS shrunk by the encapsulation header.
	tunnelFlow := c.cfg.Flow
	if tunnelFlow.MSSBytes > c.cfg.TunnelHeaderBytes {
		tunnelFlow.MSSBytes -= c.cfg.TunnelHeaderBytes
	}
	tunnelPath := tcpsim.ConcatPath(seg1, seg2, relayOverhead)
	if c.cfg.RelayLossRate > 0 {
		inner := tunnelPath
		tunnelPath = func(at time.Duration) netsim.Metrics {
			m := inner(at)
			m.LossRate = 1 - (1-m.LossRate)*(1-c.cfg.RelayLossRate)
			return m
		}
	}
	plain, err := tcpsim.Run(rng, tunnelPath, tunnelFlow, spec)
	if err != nil {
		return OverlayMeasurements{}, fmt.Errorf("core: overlay tunnel via %s: %w", dcCity, err)
	}
	out.Plain = Measurement{Kind: Overlay, DC: dcCity,
		ThroughputMbps: plain.ThroughputMbps, RetransRate: plain.RetransRate, AvgRTT: plain.AvgRTT}

	// Split proxy: two cascaded loops.
	split, err := tcpsim.RunSplit(rng, seg1, seg2,
		tcpsim.SplitConfig{Flow: c.cfg.Flow, RelayBufferBytes: c.cfg.RelayBufferBytes}, spec)
	if err != nil {
		return OverlayMeasurements{}, fmt.Errorf("core: split overlay via %s: %w", dcCity, err)
	}
	out.Split = Measurement{Kind: SplitOverlay, DC: dcCity,
		ThroughputMbps: split.ThroughputMbps, RetransRate: split.RetransRate, AvgRTT: split.AvgRTT}

	// Discrete: both segments measured independently; min is the bound.
	r1, err := tcpsim.Run(rng, seg1, c.cfg.Flow, spec)
	if err != nil {
		return OverlayMeasurements{}, fmt.Errorf("core: discrete segment 1 via %s: %w", dcCity, err)
	}
	r2, err := tcpsim.Run(rng, seg2, c.cfg.Flow, spec)
	if err != nil {
		return OverlayMeasurements{}, fmt.Errorf("core: discrete segment 2 via %s: %w", dcCity, err)
	}
	disc := r1
	if r2.ThroughputMbps < r1.ThroughputMbps {
		disc = r2
	}
	out.Discrete = Measurement{Kind: DiscreteOverlay, DC: dcCity,
		ThroughputMbps: disc.ThroughputMbps, RetransRate: disc.RetransRate,
		AvgRTT: r1.AvgRTT + r2.AvgRTT}
	return out, nil
}

// MeasurePair measures the direct path and every overlay option between two
// hosts at simulation time `at`.
func (c *CRONet) MeasurePair(rng *rand.Rand, src, dst topology.Host, dcs []string,
	spec tcpsim.Spec, at time.Duration) (PairResult, error) {

	direct, dpath, err := c.MeasureDirect(rng, src, dst, spec, at)
	if err != nil {
		return PairResult{}, err
	}
	pr := PairResult{Src: src, Dst: dst, Direct: direct, DirectPath: dpath}
	for _, dc := range dcs {
		om, err := c.MeasureOverlay(rng, src, dst, dc, spec, at)
		if err != nil {
			return PairResult{}, err
		}
		pr.Overlays = append(pr.Overlays, om)
	}
	return pr, nil
}

// MeasureMPTCP runs one MPTCP connection across the direct path plus one
// subflow per overlay data center, with the given congestion coupling; the
// subflows share the endpoint's 100 Mbps NIC. The sender never probes
// paths: the coupled controller discovers the best one. The result's
// SubflowMbps holds the direct path first, then one entry per overlay DC.
func (c *CRONet) MeasureMPTCP(rng *rand.Rand, src, dst topology.Host, dcs []string,
	coupling tcpsim.Coupling, alg tcpsim.Algorithm, spec tcpsim.Spec, at time.Duration) (tcpsim.MPTCPResult, error) {

	direct, err := c.in.RouterPath(src, dst)
	if err != nil {
		return tcpsim.MPTCPResult{}, err
	}
	dpf, err := c.pathFunc(direct, at)
	if err != nil {
		return tcpsim.MPTCPResult{}, err
	}
	paths := []tcpsim.PathFunc{dpf}
	for _, dc := range dcs {
		route, err := c.in.OverlayRoute(src, dst, dc)
		if err != nil {
			return tcpsim.MPTCPResult{}, err
		}
		seg1, err := c.pathFunc(route.ToDC, at)
		if err != nil {
			return tcpsim.MPTCPResult{}, err
		}
		seg2, err := c.pathFunc(route.FromDC, at)
		if err != nil {
			return tcpsim.MPTCPResult{}, err
		}
		paths = append(paths, tcpsim.ConcatPath(seg1, seg2, relayOverhead))
	}
	flow := c.cfg.Flow
	flow.Alg = alg
	// Coupled runs use a single-connection-sized receive window (the
	// stock MPTCP deployment); the uncoupled configuration models the
	// paper's Section VI-C scenario where users who pay for the overlay
	// bandwidth provision buffers for the aggregate of all subflows.
	connRwnd := 2 * flow.MaxCwnd
	if coupling == tcpsim.Uncoupled {
		connRwnd = 0
	}
	res, err := tcpsim.RunMPTCP(rng, paths, tcpsim.MPTCPConfig{
		Flow:             flow,
		Coupling:         coupling,
		SharedAccessMbps: nicMbps,
		ConnRwndPkts:     connRwnd,
	}, spec)
	if err != nil {
		return tcpsim.MPTCPResult{}, fmt.Errorf("core: mptcp run: %w", err)
	}
	return res, nil
}
