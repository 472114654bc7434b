package topology

import (
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkTopologyGenerate times one paper-scale Generate (DefaultConfig,
// seed 42): the set-up every figure runner, cronets-topo and the
// simulator benchmark pay before their first measurement.
func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := DefaultConfig(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutesFor times building the BGP route tables toward all 153
// destination ASes of the paper-scale Internet (DefaultConfig, seed 42),
// from an empty cache each iteration. It also reports live-B: the live
// heap the full set of tables holds, read after two GCs before and after
// building it once.
func BenchmarkRoutesFor(b *testing.B) {
	in, err := Generate(DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	buildAll := func() {
		clear(in.routes)
		for _, a := range in.ASes {
			if _, err := in.routesFor(a.ASN); err != nil {
				b.Fatal(err)
			}
		}
	}
	before := liveHeap()
	buildAll()
	live := float64(liveHeap()) - float64(before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildAll()
	}
	b.StopTimer()
	b.ReportMetric(live, "live-B")
}

// BenchmarkRouterPath times warm route lookups on the paper-scale
// Internet: per op, one (server, client) pair's direct RouterPath plus
// its OverlayRoute through each of the 5 DCs, cycling over a fixed sample
// of 300 pairs whose route tables are already built.
func BenchmarkRouterPath(b *testing.B) {
	in, err := Generate(DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]Host, 300)
	for i := range pairs {
		pairs[i] = [2]Host{in.Servers[rng.Intn(len(in.Servers))], in.Clients[rng.Intn(len(in.Clients))]}
	}
	lookup := func(p [2]Host) {
		if _, err := in.RouterPath(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
		for _, dc := range in.DCOrder {
			if _, err := in.OverlayRoute(p[0], p[1], dc); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, p := range pairs {
		lookup(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(pairs[i%len(pairs)])
	}
}

// liveHeap returns the heap bytes still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
