package topology

import (
	"fmt"
	"math"
	"slices"

	"cronets/internal/netsim"
)

// RouterPath expands the BGP AS-level route between two hosts into a
// router-level path through the network. Inside each AS the path follows
// the AS's internal backbone (shortest propagation delay between PoPs), and
// at each AS boundary the egress is chosen hot-potato style: among the
// peering points toward the next AS, the one closest (in intra-AS delay) to
// the ingress router wins, regardless of what that does to the total path.
// This early-exit behaviour is the mechanism the paper (citing Kang &
// Gligor) blames for routing bottlenecks, and it is why default paths here
// are frequently not performance-optimal.
func (in *Internet) RouterPath(from, to Host) (netsim.Path, error) {
	if from.Node == to.Node {
		return netsim.Path{}, fmt.Errorf("topology: router path from host to itself (%s)", from.Name)
	}
	routes, err := in.routesFor(to.ASN)
	if err != nil {
		return netsim.Path{}, err
	}
	nodes := []netsim.NodeID{from.Node, from.Access}
	ingress := from.Access
	cur := from.ASN
	for steps := 0; cur != to.ASN; steps++ {
		if steps > len(in.ASes)+1 {
			return netsim.Path{}, fmt.Errorf("topology: routing loop from %s to %s", from.Name, to.Name)
		}
		s, ok := routes.route(cur)
		if !ok {
			return netsim.Path{}, fmt.Errorf("topology: AS %d has no route to %d", cur, to.ASN)
		}
		dist, prev, err := in.intraASDijkstra(cur, ingress)
		if err != nil {
			return netsim.Path{}, err
		}
		// Hot-potato across the tied BGP candidates: among every peering
		// point toward every equally-good next AS, exit at the one
		// closest (in intra-AS delay) to where the traffic entered.
		a := in.ASes[cur-1]
		nextAS, egress, nextIngress, err := in.pickPeeringMulti(a, routes.ties(s), dist)
		if err != nil {
			return netsim.Path{}, err
		}
		nodes, err = reconstruct(nodes, a, prev, ingress, egress)
		if err != nil {
			return netsim.Path{}, fmt.Errorf("topology: inside AS%d: %w", cur, err)
		}
		nodes = append(nodes, nextIngress)
		ingress = nextIngress
		cur = nextAS
	}
	if ingress != to.Access {
		dist, prev, err := in.intraASDijkstra(to.ASN, ingress)
		if err != nil {
			return netsim.Path{}, err
		}
		a := in.ASes[to.ASN-1]
		if i := slices.Index(a.Routers, to.Access); i >= 0 && math.IsInf(dist[i], 1) {
			return netsim.Path{}, fmt.Errorf("topology: AS%d backbone cannot reach egress", to.ASN)
		}
		nodes, err = reconstruct(nodes, a, prev, ingress, to.Access)
		if err != nil {
			return netsim.Path{}, fmt.Errorf("topology: inside AS%d: %w", to.ASN, err)
		}
	}
	nodes = append(nodes, to.Node)
	return netsim.Path{Nodes: dedupeConsecutive(nodes)}, nil
}

// pickPeeringMulti returns the (next AS, egress router, ingress router)
// choice minimizing intra-AS delay from the current ingress (dist is the
// Dijkstra result from it, by router position in cur.Routers), across
// every peering point toward every tied next-hop AS. Ties break
// deterministically on (ASN, egress, ingress).
func (in *Internet) pickPeeringMulti(cur *AS, candidates []int32, dist []float64) (int, netsim.NodeID, netsim.NodeID, error) {
	curAS := cur.ASN
	bestAS := -1
	var bestEg, bestIn netsim.NodeID
	bestDist := math.Inf(1)
	for _, c := range candidates {
		nextAS := int(c)
		for _, p := range in.peerings[asPair(curAS, nextAS)] {
			// peeringPoint.a belongs to the lower-ASN side.
			eg, ig := p.a, p.b
			if curAS > nextAS {
				eg, ig = p.b, p.a
			}
			i := slices.Index(cur.Routers, eg)
			if i < 0 {
				continue
			}
			d := dist[i]
			if d < bestDist ||
				(d == bestDist && (nextAS < bestAS ||
					(nextAS == bestAS && (eg < bestEg || (eg == bestEg && ig < bestIn))))) {
				bestAS, bestEg, bestIn, bestDist = nextAS, eg, ig, d
			}
		}
	}
	if bestAS < 0 {
		return 0, 0, 0, fmt.Errorf("topology: no reachable egress from AS%d toward %v", curAS, candidates)
	}
	return bestAS, bestEg, bestIn, nil
}

// intraASDijkstra computes shortest-delay distances from src over the AS's
// internal backbone (links whose endpoints both belong to the AS). dist[i]
// and prev[i] describe the router a.Routers[i]: prev holds the position of
// its predecessor, -1 for src and for routers src cannot reach.
func (in *Internet) intraASDijkstra(asn int, src netsim.NodeID) ([]float64, []int, error) {
	a, err := in.AS(asn)
	if err != nil {
		return nil, nil, err
	}
	s := slices.Index(a.Routers, src)
	if s < 0 {
		return nil, nil, fmt.Errorf("topology: router %d not in AS%d", src, asn)
	}
	dist := make([]float64, len(a.Routers))
	prev := make([]int, len(a.Routers))
	visited := make([]bool, len(a.Routers))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	// The backbones are tiny (<= ~12 routers); a simple O(V^2) scan is
	// clearer than a heap and plenty fast.
	for range a.Routers {
		cur, curDist := -1, math.Inf(1)
		for i, d := range dist {
			if !visited[i] && d < curDist {
				cur, curDist = i, d
			}
		}
		if cur < 0 {
			break
		}
		visited[cur] = true
		r := a.Routers[cur]
		for _, nb := range in.Net.Neighbors(r) {
			j := slices.Index(a.Routers, nb)
			if j < 0 {
				continue
			}
			l, ok := in.Net.Link(r, nb)
			if !ok {
				continue
			}
			if d := curDist + l.Delay.Seconds(); d < dist[j] {
				dist[j] = d
				prev[j] = cur
			}
		}
	}
	return dist, prev, nil
}

// reconstruct appends to nodes the routers after src on the shortest path
// from router src to router dst inside AS a, walking the Dijkstra
// predecessors (by router position, as intraASDijkstra returns them) back
// from dst. A router outside the AS is unreachable.
func reconstruct(nodes []netsim.NodeID, a *AS, prev []int, src, dst netsim.NodeID) ([]netsim.NodeID, error) {
	start := len(nodes)
	i := slices.Index(a.Routers, dst)
	for cur := dst; cur != src; cur = a.Routers[i] {
		if i < 0 || prev[i] < 0 {
			return nil, fmt.Errorf("topology: node %d unreachable from %d", dst, src)
		}
		nodes = append(nodes, cur)
		i = prev[i]
		if len(nodes)-start > len(prev) {
			return nil, fmt.Errorf("topology: predecessor loop at node %d", a.Routers[i])
		}
	}
	slices.Reverse(nodes[start:])
	return nodes, nil
}

func dedupeConsecutive(nodes []netsim.NodeID) []netsim.NodeID {
	out := nodes[:0]
	for i, n := range nodes {
		if i > 0 && out[len(out)-1] == n {
			continue
		}
		out = append(out, n)
	}
	return out
}

// OverlayRoute is a one-hop overlay path through a cloud data center,
// keeping the two segments separate so callers can measure them discretely
// (the paper's "discrete overlay" upper bound) or concatenated.
type OverlayRoute struct {
	// DC is the overlay node (cloud VM host) the route reflects off.
	DC Host
	// ToDC is the default path from the source to the DC.
	ToDC netsim.Path
	// FromDC is the default path from the DC to the destination.
	FromDC netsim.Path
}

// FullPath returns the concatenated source->DC->destination node sequence.
func (o OverlayRoute) FullPath() (netsim.Path, error) {
	return netsim.Concat(o.ToDC, o.FromDC)
}

// OverlayRoute computes the one-hop overlay route from src to dst through
// the data center in the named city.
func (in *Internet) OverlayRoute(src, dst Host, dcCity string) (OverlayRoute, error) {
	dc, ok := in.DCs[dcCity]
	if !ok {
		return OverlayRoute{}, fmt.Errorf("topology: no data center in %q", dcCity)
	}
	toDC, err := in.RouterPath(src, dc)
	if err != nil {
		return OverlayRoute{}, fmt.Errorf("topology: overlay leg %s->%s: %w", src.Name, dc.Name, err)
	}
	fromDC, err := in.RouterPath(dc, dst)
	if err != nil {
		return OverlayRoute{}, fmt.Errorf("topology: overlay leg %s->%s: %w", dc.Name, dst.Name, err)
	}
	return OverlayRoute{DC: dc, ToDC: toDC, FromDC: fromDC}, nil
}

// Traceroute returns the router-level hops of a path, excluding host and
// cloud-VM endpoints — the view a traceroute from inside the transfer would
// produce, and the input to the diversity-score analysis of Section V-A.
func (in *Internet) Traceroute(p netsim.Path) []netsim.NodeID {
	var out []netsim.NodeID
	for _, id := range p.Nodes {
		if in.Net.MustNode(id).Kind == netsim.KindRouter {
			out = append(out, id)
		}
	}
	return out
}

// Hop identifies one traceroute hop the way raw traceroute output does: by
// the router's *inbound interface*, i.e. the (router, previous hop) pair.
// The paper's Section V-A analysis identifies routers "from the traceroute
// output" without alias resolution, so two paths crossing the same
// physical router over different links observe different IP addresses and
// count them as different routers; this type reproduces that measurement
// semantics.
type Hop struct {
	Router netsim.NodeID
	// From is the node the packet arrived from (the interface's far end).
	From netsim.NodeID
}

// TracerouteHops returns the interface-level hops of a path.
func (in *Internet) TracerouteHops(p netsim.Path) []Hop {
	var out []Hop
	for i, id := range p.Nodes {
		if in.Net.MustNode(id).Kind != netsim.KindRouter {
			continue
		}
		var from netsim.NodeID = -1
		if i > 0 {
			from = p.Nodes[i-1]
		}
		out = append(out, Hop{Router: id, From: from})
	}
	return out
}
