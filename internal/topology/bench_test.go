package topology

import "testing"

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
