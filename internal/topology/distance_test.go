package topology

import (
	"math"
	"testing"

	"cronets/internal/geo"
)

// TestDistTableMatchesDistanceKm: every lookup returns geo.DistanceKm's
// own bits, for each ordered catalog pair.
func TestDistTableMatchesDistanceKm(t *testing.T) {
	catalog := geo.Catalog()
	tab := newDistTable(catalog)
	for i, a := range catalog {
		if got := tab.index(a); got != i {
			t.Fatalf("index(%s) = %d, want %d", a.Name, got, i)
		}
		for j, b := range catalog {
			got, want := tab.distance(i, j), geo.DistanceKm(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("distance %s-%s = %v, want %v", a.Name, b.Name, got, want)
			}
		}
	}
}
