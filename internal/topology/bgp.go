package topology

import "fmt"

// routeKind records how an AS learned its best route to a destination. The
// Gao-Rexford preference order is customer > peer > provider. The zero
// value means no route.
type routeKind uint8

const (
	routeSelf routeKind = iota + 1
	routeCustomer
	routePeer
	routeProvider
)

// preference returns a smaller value for more preferred route kinds.
func (k routeKind) preference() int {
	switch k {
	case routeSelf:
		return 0
	case routeCustomer:
		return 1
	case routePeer:
		return 2
	case routeProvider:
		return 3
	default:
		return 4
	}
}

// routeTable holds every AS's best route toward one destination, packed
// into two arrays. slots[asn-1] is AS asn's route, and its next hops are
// nexts[off : off+n]: every next-hop ASN tied on (kind, length), sorted.
// Real BGP breaks such ties per router by IGP distance to the egress
// (hot-potato), which RouterPath implements; the deterministic single next
// hop used by ASPath is the first.
type routeTable struct {
	slots []routeSlot
	nexts []int32
}

// routeSlot is one AS's route in a routeTable. Like the next-hop ASNs, its
// counts are int32: an AS-path length or a tie count is below the number
// of ASes, and an offset below twice the number of AS adjacencies.
type routeSlot struct {
	off    int32     // index of the first next hop in routeTable.nexts
	n      int32     // number of tied next hops; 0 for the destination itself
	length int32     // AS-path length in hops
	kind   routeKind // 0 when the AS has no route
}

// route returns AS asn's slot and reports whether asn has a route.
func (t *routeTable) route(asn int) (routeSlot, bool) {
	if asn < 1 || asn > len(t.slots) {
		return routeSlot{}, false
	}
	s := t.slots[asn-1]
	return s, s.kind != 0
}

// ties returns the slot's tied next hops, sorted.
func (t *routeTable) ties(s routeSlot) []int32 {
	return t.nexts[s.off : s.off+s.n]
}

// routeEntry is an AS's best route toward a destination while routesFor
// computes it: the route's (kind, length) class and its tied next hops,
// sorted.
type routeEntry struct {
	kind   routeKind // 0 until the AS has a route
	length int       // AS-path length in hops
	nexts  []int
}

// sameClass reports whether two routes tie under BGP selection before the
// final deterministic tie-break.
func (a routeEntry) sameClass(b routeEntry) bool {
	return a.kind.preference() == b.kind.preference() && a.length == b.length
}

// routesFor returns (computing and caching on first use) the best route of
// every AS toward destination dst, following the Gao-Rexford export rules:
//
//   - routes learned from customers are exported to everyone;
//   - routes learned from peers or providers are exported only to customers.
//
// The resulting AS paths are therefore valley-free: an uphill
// (customer->provider) prefix, at most one peer edge, then a downhill
// (provider->customer) suffix.
func (in *Internet) routesFor(dst int) (*routeTable, error) {
	if dst < 1 || dst > len(in.routes) {
		return nil, fmt.Errorf("topology: routesFor: no AS %d", dst)
	}
	if t := &in.routes[dst-1]; t.slots != nil {
		return t, nil
	}
	// best[asn-1] is AS asn's route so far.
	best := make([]routeEntry, len(in.ASes))
	best[dst-1].kind = routeSelf

	// consider merges a candidate route via next hop `via` into the table:
	// strictly better classes replace; ties on (kind, length) accumulate
	// into nexts (the hot-potato candidates). It reports whether the class
	// improved.
	consider := func(asn, via int, cand routeEntry) bool {
		e := &best[asn-1]
		switch {
		case e.kind == 0 || betterClass(cand, *e):
			cand.nexts = append(e.nexts[:0], via)
			*e = cand
			return true
		case e.sameClass(cand):
			e.nexts = insertSorted(e.nexts, via)
		}
		return false
	}

	// Phase 1: customer routes climb provider edges. An AS that reaches dst
	// through a customer chain prefers the shortest such chain.
	frontier := []int{dst}
	for len(frontier) > 0 {
		var next []int
		for _, asn := range frontier {
			cand := routeEntry{kind: routeCustomer, length: best[asn-1].length + 1}
			for _, prov := range in.ASes[asn-1].Providers {
				if consider(prov, asn, cand) {
					next = append(next, prov)
				}
			}
		}
		frontier = next
	}

	// Phase 2: ASes holding customer (or self) routes advertise them across
	// peering edges. Peer routes do not propagate further sideways. A peer
	// route never replaces a customer or self route, so merging each offer
	// during the scan leaves the set of advertisers unchanged.
	for i, e := range best {
		if e.kind != routeCustomer && e.kind != routeSelf {
			continue
		}
		cand := routeEntry{kind: routePeer, length: e.length + 1}
		for _, peer := range in.ASes[i].Peers {
			consider(peer, i+1, cand)
		}
	}

	// Phase 3: provider routes descend customer edges, shortest first, so
	// each AS settles on its shortest provider route. byLength[l] lists the
	// ASes whose route has length l. Extending a route of length l offers a
	// provider route of length l+1, which loses to every route of another
	// kind and to every shorter one, so it lands only on an AS with no route
	// yet or ties a route of length l+1: each AS joins one list, each list
	// is complete before its turn, and the order within a list cannot
	// change the result.
	var byLength [][]int
	for i, e := range best {
		if e.kind == 0 {
			continue
		}
		for len(byLength) <= e.length {
			byLength = append(byLength, nil)
		}
		byLength[e.length] = append(byLength[e.length], i+1)
	}
	for l := 0; l < len(byLength); l++ {
		cand := routeEntry{kind: routeProvider, length: l + 1}
		for _, asn := range byLength[l] {
			for _, cust := range in.ASes[asn-1].Customers {
				if consider(cust, asn, cand) {
					if l+1 == len(byLength) {
						byLength = append(byLength, nil)
					}
					byLength[l+1] = append(byLength[l+1], cust)
				}
			}
		}
	}

	// Pack the table: one slot per AS and one array of next hops.
	total := 0
	for _, e := range best {
		total += len(e.nexts)
	}
	t := routeTable{slots: make([]routeSlot, len(best)), nexts: make([]int32, 0, total)}
	for i, e := range best {
		if e.kind == 0 {
			continue
		}
		t.slots[i] = routeSlot{
			off: int32(len(t.nexts)), n: int32(len(e.nexts)),
			length: int32(e.length), kind: e.kind,
		}
		for _, v := range e.nexts {
			t.nexts = append(t.nexts, int32(v))
		}
	}
	in.routes[dst-1] = t
	return &in.routes[dst-1], nil
}

// betterClass reports whether a's (kind, length) class strictly beats b's.
func betterClass(a, b routeEntry) bool {
	if a.kind.preference() != b.kind.preference() {
		return a.kind.preference() < b.kind.preference()
	}
	return a.length < b.length
}

// insertSorted adds v to a sorted slice without duplicates.
func insertSorted(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return xs
		}
		if x > v {
			xs = append(xs, 0)
			copy(xs[i+1:], xs[i:])
			xs[i] = v
			return xs
		}
	}
	return append(xs, v)
}

// ASPath returns the AS-level default route from src to dst (inclusive of
// both), as selected by the valley-free decision process.
func (in *Internet) ASPath(src, dst int) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	routes, err := in.routesFor(dst)
	if err != nil {
		return nil, err
	}
	path := []int{src}
	cur := src
	for cur != dst {
		s, ok := routes.route(cur)
		if !ok {
			return nil, fmt.Errorf("topology: AS %d has no route to %d", src, dst)
		}
		cur = int(routes.ties(s)[0])
		path = append(path, cur)
		if len(path) > len(in.ASes)+1 {
			return nil, fmt.Errorf("topology: routing loop from %d to %d", src, dst)
		}
	}
	return path, nil
}

// IsValleyFree reports whether the AS path respects Gao-Rexford export
// rules given the business relationships in the topology: some uphill
// customer->provider hops, at most one peer hop, then downhill.
func (in *Internet) IsValleyFree(asPath []int) bool {
	const (
		stageUp = iota
		stageDown
	)
	stage := stageUp
	peersUsed := 0
	for i := 1; i < len(asPath); i++ {
		rel, ok := in.relationship(asPath[i-1], asPath[i])
		if !ok {
			return false
		}
		switch rel {
		case hopUp:
			if stage != stageUp || peersUsed > 0 {
				return false
			}
		case hopPeer:
			peersUsed++
			if stage != stageUp || peersUsed > 1 {
				return false
			}
			stage = stageDown
		case hopDown:
			stage = stageDown
		}
	}
	return true
}

type hopRel int

const (
	hopUp   hopRel = iota + 1 // customer -> provider
	hopDown                   // provider -> customer
	hopPeer
)

func (in *Internet) relationship(from, to int) (hopRel, bool) {
	a, err := in.AS(from)
	if err != nil {
		return 0, false
	}
	for _, p := range a.Providers {
		if p == to {
			return hopUp, true
		}
	}
	for _, c := range a.Customers {
		if c == to {
			return hopDown, true
		}
	}
	for _, p := range a.Peers {
		if p == to {
			return hopPeer, true
		}
	}
	return 0, false
}
