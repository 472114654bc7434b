package topology

import "cronets/internal/geo"

// distTable holds one Generate call's great-circle distances between
// catalog cities: each ordered pair's geo.DistanceKm, computed once. The
// generator's nearest-router, nearest-provider and peering searches ask
// for tens of thousands of distances among a few dozen cities, so they
// read this table instead of recomputing the same haversines. The values
// are geo.DistanceKm's own results, so a lookup returns exactly the bits
// a direct call would.
type distTable struct {
	n      int
	byName map[string]int
	km     []float64 // km[i*n+j] = geo.DistanceKm(cities[i], cities[j])
}

func newDistTable(cities []geo.Location) *distTable {
	n := len(cities)
	t := &distTable{
		n:      n,
		byName: make(map[string]int, n),
		km:     make([]float64, n*n),
	}
	for i, a := range cities {
		t.byName[a.Name] = i
		for j, b := range cities {
			t.km[i*n+j] = geo.DistanceKm(a, b)
		}
	}
	return t
}

// index returns city's index in the table. Generate places routers only
// in catalog cities (it rejects unknown DC and server cities), so every
// city it asks about is in the table.
func (t *distTable) index(city geo.Location) int {
	return t.byName[city.Name]
}

// distance returns the distance between the cities at table indexes i and j.
func (t *distTable) distance(i, j int) float64 {
	return t.km[i*t.n+j]
}

// between returns geo.DistanceKm(x.Presence[i], y.Presence[j]).
func (t *distTable) between(x *AS, i int, y *AS, j int) float64 {
	return t.distance(x.presenceIdx[i], y.presenceIdx[j])
}
