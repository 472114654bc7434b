package pathmon

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMakeRouteSeparatorInHop: a hop containing the key's separator reads
// as two hops, whichever spelling of the route is built first, so two hop
// lists never share a key while disagreeing on Hops.
func TestMakeRouteSeparatorInHop(t *testing.T) {
	joined := MakeRoute("sep-a:1\x1fsep-b:2")
	split := MakeRoute("sep-a:1", "sep-b:2")
	if joined != split {
		t.Fatalf("MakeRoute(%q) = %q, MakeRoute(%q, %q) = %q; want one route",
			"sep-a:1\x1fsep-b:2", joined.key, "sep-a:1", "sep-b:2", split.key)
	}
	want := []string{"sep-a:1", "sep-b:2"}
	for _, r := range []Route{joined, split} {
		if !slices.Equal(r.Hops(), want) || r.NumHops() != 2 || r.First() != "sep-a:1" ||
			r.String() != "via sep-a:1>sep-b:2" || !r.IsChain() {
			t.Errorf("route %q: Hops %q NumHops %d First %q String %q IsChain %v; want hops %q",
				r.key, r.Hops(), r.NumHops(), r.First(), r.String(), r.IsChain(), want)
		}
	}
	if r := MakeRoute("\x1f", "", "sep-c:3\x1f"); r != MakeRoute("sep-c:3") {
		t.Errorf("empty pieces kept: key %q", r.key)
	}
	if r := MakeRoute("", "\x1f\x1f"); r != Direct {
		t.Errorf("a route of separators only is %q, want Direct", r.key)
	}
}

// TestMakeRouteRetainsNothing: a route that is dropped leaves nothing
// behind, however many distinct routes a long-running monitor sees (each
// relay set-up brings new ports, and chain candidates churn).
func TestMakeRouteRetainsNothing(t *testing.T) {
	const routes, maxGrowth = 100_000, 1 << 20
	before := liveHeap()
	for i := 0; i < routes; i++ {
		n := strconv.Itoa(i)
		r := MakeRoute("10.0.0.1:"+n, "10.0.0.2:"+n, "10.0.0.3:"+n)
		if len(r.Hops()) != 3 || !strings.HasPrefix(r.String(), "via 10.0.0.1:") {
			t.Fatalf("route %q: Hops %q String %q", r.key, r.Hops(), r.String())
		}
	}
	growth := int64(liveHeap()) - int64(before)
	if growth > maxGrowth {
		t.Fatalf("%d dropped routes left %d B of live heap, want at most %d B", routes, growth, maxGrowth)
	}
	t.Logf("%d dropped routes left %d B of live heap", routes, growth)
}

// liveHeap returns the heap bytes still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// FuzzMakeRoute builds routes from arbitrary hop strings. Properties:
//   - Hops round-trips: MakeRoute(r.Hops()...) == r;
//   - NumHops, Hops, First, IsDirect, IsChain and String agree;
//   - no hop is empty or contains the key's separator.
//
// The seed corpus is in testdata/fuzz/FuzzMakeRoute.
func FuzzMakeRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c string) {
		r := MakeRoute(a, b, c)
		hops := r.Hops()
		if back := MakeRoute(hops...); back != r {
			t.Fatalf("MakeRoute(%q, %q, %q) = %q, but MakeRoute(Hops()...) = %q", a, b, c, r.key, back.key)
		}
		if r.NumHops() != len(hops) {
			t.Fatalf("route %q: NumHops %d, len(Hops) %d", r.key, r.NumHops(), len(hops))
		}
		if r.IsDirect() != (len(hops) == 0) || r.IsChain() != (len(hops) > 1) {
			t.Fatalf("route %q with %d hops: IsDirect %v IsChain %v", r.key, len(hops), r.IsDirect(), r.IsChain())
		}
		if r.IsDirect() {
			if r.First() != "" || r.String() != "direct" {
				t.Fatalf("direct route: First %q String %q", r.First(), r.String())
			}
			return
		}
		if r.First() != hops[0] {
			t.Fatalf("route %q: First %q, Hops()[0] %q", r.key, r.First(), hops[0])
		}
		if want := "via " + strings.Join(hops, ">"); r.String() != want {
			t.Fatalf("route %q: String %q, want %q", r.key, r.String(), want)
		}
		for _, h := range hops {
			if h == "" || strings.Contains(h, hopSep) {
				t.Fatalf("route %q has hop %q", r.key, h)
			}
		}
	})
}
