package pathmon

// Route is the one path representation every layer shares: an ordered
// list of relay CONNECT endpoints, canonicalized to a single interned
// key. The zero value is the direct Internet path; one hop is a plain
// relay path; two or more hops are a chain. Because the key is one
// string, Route is comparable and keys the monitor's state table, the
// gateway's dial attribution, and the pool's warm set without any
// per-kind special cases — depth is data, not type structure.

import (
	"strings"
	"sync"
)

// hopSep joins hop endpoints into the canonical route key. The unit
// separator cannot appear in a host:port, so a hop that contains one
// reads as two hops (see MakeRoute).
const hopSep = "\x1f"

// hopLists interns each route key's decoded hop slice, so Hops() on a
// previously constructed Route returns a shared slice without
// re-splitting. Routes are combinations of a small relay fleet, so the
// table stays small for the life of the process.
var hopLists sync.Map // key (string) -> []string

// Route identifies one candidate route to the destination: zero hops
// (direct), one relay, or an N-hop relay chain. Route is comparable (it
// keys the monitor's state table); construct non-direct routes with
// MakeRoute. Callers must not mutate the slice returned by Hops — it is
// shared via the intern table.
type Route struct {
	key string
}

// Direct is the no-relay route.
var Direct = Route{}

// MakeRoute builds the route crossing the given relay endpoints in
// order. Every hop is split at U+001F, the key's separator, so a hop
// containing it reads as two hops; empty hops and pieces are dropped, and
// no hops at all yields Direct. The interned hop list is therefore the
// key split at its separators, and Hops, NumHops, First and String agree
// for any input.
func MakeRoute(hops ...string) Route {
	clean := make([]string, 0, len(hops))
	for _, h := range hops {
		for h != "" {
			var part string
			part, h, _ = strings.Cut(h, hopSep)
			if part != "" {
				clean = append(clean, part)
			}
		}
	}
	if len(clean) == 0 {
		return Route{}
	}
	key := strings.Join(clean, hopSep)
	hopLists.LoadOrStore(key, clean)
	return Route{key: key}
}

// IsDirect reports whether the route skips the overlay.
func (r Route) IsDirect() bool { return r.key == "" }

// IsChain reports whether the route crosses more than one relay.
func (r Route) IsChain() bool { return strings.Contains(r.key, hopSep) }

// NumHops returns how many relays the route crosses (0 for direct).
func (r Route) NumHops() int {
	if r.key == "" {
		return 0
	}
	return strings.Count(r.key, hopSep) + 1
}

// Hops returns the ordered relay endpoints the route crosses (nil for
// direct). The slice is shared — treat it as read-only.
func (r Route) Hops() []string {
	if r.key == "" {
		return nil
	}
	if hops, ok := hopLists.Load(r.key); ok {
		return hops.([]string)
	}
	hops := strings.Split(r.key, hopSep)
	actual, _ := hopLists.LoadOrStore(r.key, hops)
	return actual.([]string)
}

// First returns the route's first-hop relay endpoint ("" for direct) —
// the endpoint a warm connection pool pre-establishes TCP to.
func (r Route) First() string {
	if r.key == "" {
		return ""
	}
	if i := strings.IndexByte(r.key, hopSep[0]); i >= 0 {
		return r.key[:i]
	}
	return r.key
}

// Kind returns the route's class: "direct", "relay", or "chain".
func (r Route) Kind() string {
	switch r.NumHops() {
	case 0:
		return "direct"
	case 1:
		return "relay"
	default:
		return "chain"
	}
}

// String returns a display name: "direct", "via <relay>", or
// "via <relay>><relay>>..." for every hop in order.
func (r Route) String() string {
	if r.key == "" {
		return "direct"
	}
	return "via " + strings.Join(r.Hops(), ">")
}
