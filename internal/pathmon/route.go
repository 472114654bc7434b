package pathmon

// Route is the one path representation every layer shares: an ordered
// list of relay CONNECT endpoints, canonicalized to a single key. The
// zero value is the direct Internet path; one hop is a plain relay path;
// two or more hops are a chain. Because the key is one string, Route is
// comparable and keys the monitor's state table, the gateway's dial
// attribution, and the pool's warm set without any per-kind special
// cases — depth is data, not type structure.

import "strings"

// hopSep joins hop endpoints into the canonical route key. The unit
// separator cannot appear in a host:port, so a hop that contains one
// reads as two hops (see MakeRoute).
const hopSep = "\x1f"

// Route identifies one candidate route to the destination: zero hops
// (direct), one relay, or an N-hop relay chain. Route is comparable (it
// keys the monitor's state table); construct non-direct routes with
// MakeRoute. The key is all a Route holds: every accessor derives its
// answer from it, so a dropped Route leaves nothing behind.
type Route struct {
	key string
}

// Direct is the no-relay route.
var Direct = Route{}

// MakeRoute builds the route crossing the given relay endpoints in
// order. Every hop is split at U+001F, the key's separator, so a hop
// containing it reads as two hops; empty hops and pieces are dropped, and
// no hops at all yields Direct. The hop list is therefore the key split
// at its separators, and Hops, NumHops, First and String agree for any
// input.
func MakeRoute(hops ...string) Route {
	var key strings.Builder
	for _, h := range hops {
		for h != "" {
			var part string
			part, h, _ = strings.Cut(h, hopSep)
			if part == "" {
				continue
			}
			if key.Len() > 0 {
				key.WriteString(hopSep)
			}
			key.WriteString(part)
		}
	}
	return Route{key: key.String()}
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
// direct): the key split at its separators, in a fresh slice whose
// strings share the key's bytes.
func (r Route) Hops() []string {
	if r.key == "" {
		return nil
	}
	return strings.Split(r.key, hopSep)
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
	return "via " + strings.ReplaceAll(r.key, hopSep, ">")
}
