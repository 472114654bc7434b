package topology

import (
	"testing"
)

// TestBGPTiesAreRecorded: destinations reachable over several equally-good
// next hops must expose all of them (the hot-potato candidates).
func TestBGPTiesAreRecorded(t *testing.T) {
	in := generate(t, 42)
	multi := 0
	for _, c := range in.Clients {
		routes, err := in.routesFor(c.ASN)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := routes.route(in.CloudASN)
		if !ok {
			t.Fatalf("cloud has no route to %s", c.Name)
		}
		nexts := routes.ties(e)
		if len(nexts) == 0 {
			t.Fatalf("route to %s has empty candidate set", c.Name)
		}
		// The deterministic next must be the smallest candidate.
		next := nexts[0]
		for _, n := range nexts {
			if n < next {
				t.Fatalf("next %d is not the smallest of %v", next, nexts)
			}
		}
		if len(nexts) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no destination has tied BGP candidates; hot-potato divergence impossible")
	}
}

// TestTiedCandidatesShareClass: every tied next hop must yield the same
// route kind and length when followed.
func TestTiedCandidatesShareClass(t *testing.T) {
	in := generate(t, 42)
	for _, c := range in.Clients[:5] {
		routes, err := in.routesFor(c.ASN)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range routes.slots {
			asn := i + 1
			if e.n < 2 || e.kind == routeSelf {
				continue
			}
			for _, n := range routes.ties(e) {
				ne, ok := routes.route(int(n))
				if !ok {
					t.Fatalf("AS%d candidate %d has no route", asn, n)
				}
				if ne.length != e.length-1 {
					t.Fatalf("AS%d candidate %d has length %d, want %d",
						asn, n, ne.length, e.length-1)
				}
			}
		}
	}
}

// TestRouterPathRespectsValleyFreedom: the hot-potato expansion must only
// walk valley-free AS sequences.
func TestRouterPathValleyFree(t *testing.T) {
	in := generate(t, 42)
	for _, s := range in.Servers {
		for _, c := range in.Clients[:5] {
			p, err := in.RouterPath(s, c)
			if err != nil {
				t.Fatal(err)
			}
			var asSeq []int
			for _, id := range p.Nodes {
				asn := in.Net.MustNode(id).ASN
				if len(asSeq) == 0 || asSeq[len(asSeq)-1] != asn {
					asSeq = append(asSeq, asn)
				}
			}
			if !in.IsValleyFree(asSeq) {
				t.Errorf("router path %s->%s AS sequence %v not valley-free", s.Name, c.Name, asSeq)
			}
		}
	}
}

func TestInsertSorted(t *testing.T) {
	xs := insertSorted(nil, 5)
	xs = insertSorted(xs, 2)
	xs = insertSorted(xs, 9)
	xs = insertSorted(xs, 5) // duplicate
	want := []int{2, 5, 9}
	if len(xs) != len(want) {
		t.Fatalf("insertSorted = %v", xs)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", xs, want)
		}
	}
}

func TestRouteKindPreference(t *testing.T) {
	if !(routeSelf.preference() < routeCustomer.preference() &&
		routeCustomer.preference() < routePeer.preference() &&
		routePeer.preference() < routeProvider.preference()) {
		t.Error("Gao-Rexford preference order broken")
	}
}
