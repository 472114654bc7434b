// Package netsim provides the network substrate of the CRONets reproduction:
// a graph of routers and hosts connected by links with propagation delay,
// capacity, background utilization, and loss, plus time-varying congestion
// events. Path-level metrics (base RTT, queueing delay, composed loss rate,
// available bandwidth) are derived from the links a path traverses; the TCP
// and MPTCP simulators in internal/tcpsim consume those metrics.
//
// The model is a fluid one: individual background packets are not simulated.
// Each link carries a background utilization in [0, 1); utilization induces
// queueing delay (convex in utilization) and congestion loss (quadratic above
// a knee), which is how the reproduction realizes the paper's premise that
// most Internet bottlenecks live in the congested core (Akella et al. 2003,
// Kang & Gligor 2014).
package netsim

import (
	"fmt"
	"math"
	"time"

	"cronets/internal/geo"
)

// NodeID identifies a node within a Network.
type NodeID int

// NodeKind classifies nodes.
type NodeKind int

// Node kinds.
const (
	KindRouter NodeKind = iota + 1
	KindHost
	KindCloudDC
)

// String returns a short name for the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindHost:
		return "host"
	case KindCloudDC:
		return "cloud-dc"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a router, host, or cloud data-center node in the network.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
	// ASN is the autonomous system the node belongs to (0 if none).
	ASN int
	// Loc is the node's geographic location, used for propagation delays.
	Loc geo.Location
}

// CongestionEvent is a transient increase in a link's utilization and loss
// during [Start, End) of simulation time. The longitudinal experiment
// (Figure 6) injects these to reproduce the paper's observation that the
// largest-improvement paths were suffering a transient event in an
// intermediate ISP.
type CongestionEvent struct {
	Start, End       time.Duration
	ExtraUtilization float64
	ExtraLoss        float64
}

// Active reports whether the event covers simulation time t.
func (e CongestionEvent) Active(t time.Duration) bool {
	return t >= e.Start && t < e.End
}

// Link is an undirected network link. Utilization and loss are symmetric;
// this matches the paper's black-box treatment of paths.
type Link struct {
	// A and B are the endpoints; A < B canonically.
	A, B NodeID
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// CapacityMbps is the raw link capacity in megabits per second.
	CapacityMbps float64
	// BaseLossRate is the per-packet loss probability independent of
	// congestion (transmission errors, policers).
	BaseLossRate float64
	// BaseUtilization is the background traffic load in [0, 1).
	BaseUtilization float64
	// MaxQueueDelay is the queueing delay at full utilization (one-way).
	MaxQueueDelay time.Duration
	// DiurnalAmplitude adds a sinusoidal day-night swing to the
	// utilization: u(t) = base + A*sin(2*pi*(t/24h + phase)). Real
	// backbone load follows office hours; the longitudinal experiment's
	// 3-hour samples ride this curve.
	DiurnalAmplitude float64
	// DiurnalPhase shifts the swing, in fractions of a day.
	DiurnalPhase float64

	events []CongestionEvent
}

// linkKey canonicalizes the undirected pair.
type linkKey struct{ a, b NodeID }

func keyOf(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// AddEvent attaches a transient congestion event to the link.
func (l *Link) AddEvent(e CongestionEvent) {
	l.events = append(l.events, e)
}

// Events returns a copy of the link's congestion events.
func (l *Link) Events() []CongestionEvent {
	return append([]CongestionEvent(nil), l.events...)
}

const (
	// maxUtilization caps effective utilization so queueing stays finite.
	maxUtilization = 0.98
	// congLossKnee is the utilization above which congestion loss appears.
	congLossKnee = 0.70
	// congLossMax is the congestion-induced loss rate at full utilization.
	congLossMax = 0.008
)

// UtilizationAt returns the effective utilization at simulation time t,
// including transient events, clamped to [0, maxUtilization].
func (l *Link) UtilizationAt(t time.Duration) float64 {
	return l.utilization(dayOf(t), t)
}

// dayOf converts simulation time t to days, the unit of the diurnal swing.
func dayOf(t time.Duration) float64 { return t.Seconds() / (24 * 3600) }

// utilization is UtilizationAt with t already converted to days, so a path
// sampling many links at one time converts it once.
func (l *Link) utilization(day float64, t time.Duration) float64 {
	u := l.BaseUtilization
	if l.DiurnalAmplitude != 0 {
		u += l.DiurnalAmplitude * math.Sin(2*math.Pi*(day+l.DiurnalPhase))
	}
	for _, e := range l.events {
		if e.Active(t) {
			u += e.ExtraUtilization
		}
	}
	if u < 0 {
		u = 0
	}
	if u > maxUtilization {
		u = maxUtilization
	}
	return u
}

// LossRateAt returns the per-packet loss probability at time t: the base
// loss plus congestion loss, which grows quadratically once utilization
// exceeds the knee.
func (l *Link) LossRateAt(t time.Duration) float64 {
	return l.lossRate(l.UtilizationAt(t), t)
}

// lossRate is LossRateAt for an already-computed utilization u at time t.
func (l *Link) lossRate(u float64, t time.Duration) float64 {
	loss := l.BaseLossRate
	if u > congLossKnee {
		x := (u - congLossKnee) / (1 - congLossKnee)
		loss += congLossMax * x * x
	}
	for _, e := range l.events {
		if e.Active(t) {
			loss += e.ExtraLoss
		}
	}
	if loss > 1 {
		loss = 1
	}
	return loss
}

// QueueDelayAt returns the one-way queueing delay at time t. It uses an
// M/M/1-flavored convex curve u/(1-u), scaled so that MaxQueueDelay is
// reached at the utilization cap.
func (l *Link) QueueDelayAt(t time.Duration) time.Duration {
	return l.queueDelay(l.UtilizationAt(t))
}

// queueDelay is QueueDelayAt for an already-computed utilization u.
func (l *Link) queueDelay(u float64) time.Duration {
	if u <= 0 {
		return 0
	}
	// Normalize u/(1-u) by its value at maxUtilization.
	norm := maxUtilization / (1 - maxUtilization)
	f := (u / (1 - u)) / norm
	return time.Duration(f * float64(l.MaxQueueDelay))
}

// AvailableMbps returns the capacity left for foreground traffic at time t.
func (l *Link) AvailableMbps(t time.Duration) float64 {
	return l.availableMbps(l.UtilizationAt(t))
}

// availableMbps is AvailableMbps for an already-computed utilization u.
func (l *Link) availableMbps(u float64) float64 {
	return l.CapacityMbps * (1 - u)
}

// Network is a graph of nodes and undirected links.
type Network struct {
	nodes []Node
	links map[linkKey]*Link
	adj   map[NodeID][]NodeID
}

// New returns an empty network.
func New() *Network {
	return &Network{
		links: make(map[linkKey]*Link),
		adj:   make(map[NodeID][]NodeID),
	}
}

// AddNode adds a node and returns its ID. The Node's ID field is assigned by
// the network.
func (n *Network) AddNode(node Node) NodeID {
	node.ID = NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	return node.ID
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return Node{}, fmt.Errorf("netsim: no node %d", id)
	}
	return n.nodes[id], nil
}

// MustNode returns the node with the given ID and panics if it does not
// exist. It is intended for use with IDs the caller just created.
func (n *Network) MustNode(id NodeID) Node {
	node, err := n.Node(id)
	if err != nil {
		panic(err)
	}
	return node
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Nodes returns a copy of all nodes.
func (n *Network) Nodes() []Node {
	return append([]Node(nil), n.nodes...)
}

// AddLink inserts an undirected link between a and b. Adding a link between
// the same pair twice replaces the previous link.
func (n *Network) AddLink(l Link) error {
	if _, err := n.Node(l.A); err != nil {
		return fmt.Errorf("netsim: add link: %w", err)
	}
	if _, err := n.Node(l.B); err != nil {
		return fmt.Errorf("netsim: add link: %w", err)
	}
	if l.A == l.B {
		return fmt.Errorf("netsim: add link: self loop on node %d", l.A)
	}
	k := keyOf(l.A, l.B)
	if l.A > l.B {
		l.A, l.B = l.B, l.A
	}
	if _, exists := n.links[k]; !exists {
		n.adj[k.a] = append(n.adj[k.a], k.b)
		n.adj[k.b] = append(n.adj[k.b], k.a)
	}
	n.links[k] = &l
	return nil
}

// Link returns the link between a and b, if any.
func (n *Network) Link(a, b NodeID) (*Link, bool) {
	l, ok := n.links[keyOf(a, b)]
	return l, ok
}

// Neighbors returns the IDs adjacent to id. The returned slice is shared;
// callers must not modify it.
func (n *Network) Neighbors(id NodeID) []NodeID {
	return n.adj[id]
}

// NumLinks returns the number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// Links returns all links. The pointers are live: mutating a returned link
// (e.g. adding a congestion event) affects the network.
func (n *Network) Links() []*Link {
	out := make([]*Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	return out
}

// Path is a loop-free sequence of node IDs with a link between each
// consecutive pair.
type Path struct {
	Nodes []NodeID
}

// Hops returns the number of links on the path.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Valid reports whether every consecutive pair of nodes is connected in n
// and the path visits no node twice.
func (p Path) Valid(n *Network) bool {
	if len(p.Nodes) < 2 {
		return false
	}
	seen := make(map[NodeID]bool, len(p.Nodes))
	for i, id := range p.Nodes {
		if seen[id] {
			return false
		}
		seen[id] = true
		if i == 0 {
			continue
		}
		if _, ok := n.Link(p.Nodes[i-1], id); !ok {
			return false
		}
	}
	return true
}

// Metrics is the set of path-level quantities consumed by the TCP simulator.
type Metrics struct {
	// BaseRTT is the round-trip propagation delay (no queueing).
	BaseRTT time.Duration
	// QueueDelayRTT is the round-trip queueing delay contributed by
	// background utilization at the sampling time.
	QueueDelayRTT time.Duration
	// LossRate is the composed per-packet loss probability across links.
	LossRate float64
	// BottleneckMbps is the minimum raw capacity along the path.
	BottleneckMbps float64
	// AvailableMbps is the minimum capacity left by background traffic.
	AvailableMbps float64
	// Hops is the number of links on the path.
	Hops int
}

// RTT returns the effective round-trip time: base plus queueing.
func (m Metrics) RTT() time.Duration { return m.BaseRTT + m.QueueDelayRTT }

// PathMetrics composes the metrics of the links along p at simulation time t.
// It is ResolvePath followed by MetricsAt; callers sampling one path many
// times should resolve it once instead.
func (n *Network) PathMetrics(p Path, t time.Duration) (Metrics, error) {
	r, err := n.ResolvePath(p)
	if err != nil {
		return Metrics{}, err
	}
	return r.MetricsAt(t), nil
}

// ResolvedPath is a Path whose links have been looked up once, so sampling
// its metrics costs no map lookups. It holds the live links: congestion
// events added to them later are seen, but a link replaced in the network
// by AddLink after resolution is not, and neither is a field of a resolved
// link changed after resolution.
type ResolvedPath struct {
	links []resolvedLink
}

// resolvedLink is one link of a ResolvedPath. A link without a diurnal swing
// or congestion events has the same utilization at every time, so its
// per-sample values are computed once, at resolution, and used for as long
// as it has no events.
type resolvedLink struct {
	*Link
	fixed bool
	// The fixed link's round-trip queueing delay, survival factor
	// 1 - loss, and available Mbps.
	queueRTT time.Duration
	survive  float64
	avail    float64
}

// ResolvePath looks up the links along p in path order. It fails if p has
// fewer than two nodes or two consecutive nodes are not linked.
func (n *Network) ResolvePath(p Path) (ResolvedPath, error) {
	if len(p.Nodes) < 2 {
		return ResolvedPath{}, fmt.Errorf("netsim: path needs at least 2 nodes, got %d", len(p.Nodes))
	}
	links := make([]resolvedLink, 0, p.Hops())
	for i := 1; i < len(p.Nodes); i++ {
		l, ok := n.Link(p.Nodes[i-1], p.Nodes[i])
		if !ok {
			return ResolvedPath{}, fmt.Errorf("netsim: no link %d-%d on path", p.Nodes[i-1], p.Nodes[i])
		}
		r := resolvedLink{Link: l}
		if l.DiurnalAmplitude == 0 && len(l.events) == 0 {
			u := l.UtilizationAt(0) // the same at every time
			r.fixed = true
			r.queueRTT = 2 * l.queueDelay(u)
			r.survive = 1 - l.lossRate(u, 0)
			r.avail = l.availableMbps(u)
		}
		links = append(links, r)
	}
	return ResolvedPath{links: links}, nil
}

// MetricsAt composes the metrics of the path's links at simulation time t,
// evaluating each link's utilization at most once. Loss composes as
// 1 - prod(1 - loss_i) in path order; delays add; bandwidths take the min.
func (r ResolvedPath) MetricsAt(t time.Duration) Metrics {
	m := Metrics{BottleneckMbps: -1, AvailableMbps: -1, Hops: len(r.links)}
	day := dayOf(t)
	survive := 1.0
	for i := range r.links {
		l := &r.links[i]
		queueRTT, keep, avail := l.queueRTT, l.survive, l.avail
		if !l.fixed || len(l.events) != 0 {
			u := l.utilization(day, t)
			queueRTT = 2 * l.queueDelay(u)
			keep = 1 - l.lossRate(u, t)
			avail = l.availableMbps(u)
		}
		m.BaseRTT += 2 * l.Delay
		m.QueueDelayRTT += queueRTT
		survive *= keep
		if m.BottleneckMbps < 0 || l.CapacityMbps < m.BottleneckMbps {
			m.BottleneckMbps = l.CapacityMbps
		}
		if m.AvailableMbps < 0 || avail < m.AvailableMbps {
			m.AvailableMbps = avail
		}
	}
	m.LossRate = 1 - survive
	return m
}

// Concat joins two paths sharing a pivot node (a ends where b begins). The
// result reuses the pivot once. Concat does not check loop-freedom: an
// overlay path may legitimately revisit routers near the shared endpoint.
func Concat(a, b Path) (Path, error) {
	if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
		return Path{}, fmt.Errorf("netsim: concat of empty path")
	}
	if a.Nodes[len(a.Nodes)-1] != b.Nodes[0] {
		return Path{}, fmt.Errorf("netsim: concat pivot mismatch: %d vs %d",
			a.Nodes[len(a.Nodes)-1], b.Nodes[0])
	}
	nodes := make([]NodeID, 0, len(a.Nodes)+len(b.Nodes)-1)
	nodes = append(nodes, a.Nodes...)
	nodes = append(nodes, b.Nodes[1:]...)
	return Path{Nodes: nodes}, nil
}

// ConcatMetrics composes metrics of a concatenated (overlay) path from the
// two segment metrics, adding a per-hop relay overhead: the overlay node
// decapsulates, rewrites addresses (NAT) and re-encapsulates each packet.
func ConcatMetrics(a, b Metrics, relayOverhead time.Duration) Metrics {
	bn := a.BottleneckMbps
	if b.BottleneckMbps < bn {
		bn = b.BottleneckMbps
	}
	av := a.AvailableMbps
	if b.AvailableMbps < av {
		av = b.AvailableMbps
	}
	return Metrics{
		BaseRTT:        a.BaseRTT + b.BaseRTT + 2*relayOverhead,
		QueueDelayRTT:  a.QueueDelayRTT + b.QueueDelayRTT,
		LossRate:       1 - (1-a.LossRate)*(1-b.LossRate),
		BottleneckMbps: bn,
		AvailableMbps:  av,
		Hops:           a.Hops + b.Hops,
	}
}
