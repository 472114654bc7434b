// Package geo models the geographic layer of the CRONets reproduction: a
// catalog of city locations spanning the five continents covered by the
// paper's measurement (North America, Europe, Asia, South America, and
// Australia), great-circle distances, and a fiber propagation-delay model.
package geo

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Location is a point on the Earth's surface.
type Location struct {
	Name      string  `json:"name"`
	Continent string  `json:"continent"`
	LatDeg    float64 `json:"latDeg"`
	LonDeg    float64 `json:"lonDeg"`
}

// String returns "name (continent)".
func (l Location) String() string {
	return fmt.Sprintf("%s (%s)", l.Name, l.Continent)
}

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between a and b in kilometers
// using the haversine formula.
func DistanceKm(a, b Location) float64 {
	lat1 := a.LatDeg * math.Pi / 180
	lat2 := b.LatDeg * math.Pi / 180
	dLat := (b.LatDeg - a.LatDeg) * math.Pi / 180
	dLon := (b.LonDeg - a.LonDeg) * math.Pi / 180

	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	c := 2 * math.Atan2(math.Sqrt(s), math.Sqrt(1-s))
	return earthRadiusKm * c
}

// Speed of light in fiber is roughly 2/3 of c, i.e. ~200 km/ms. Real paths
// are not geodesics: fiber routes detour through conduits and landing
// stations. The conventional fudge factor is ~1.5-2x the geodesic distance;
// we use 1.6.
const (
	fiberKmPerMs     = 200.0
	pathStretchRatio = 1.6
)

// PropagationDelay returns the modeled one-way propagation delay between two
// locations: great-circle distance, stretched by the fiber-route factor, at
// 2/3 c. A small floor (0.1 ms) accounts for local switching even at zero
// distance.
func PropagationDelay(a, b Location) time.Duration {
	km := DistanceKm(a, b) * pathStretchRatio
	ms := km / fiberKmPerMs
	if ms < 0.1 {
		ms = 0.1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// Catalog returns the city catalog used by the topology generator. It
// includes the paper's cloud data-center locations (Washington DC, San Jose,
// Dallas, Amsterdam, Tokyo plus the four extra DCs used in the MPTCP
// validation), its Eclipse-mirror server locations (Canada, USA, Germany,
// Switzerland, Japan, Korea, China), and a spread of client cities matching
// the PlanetLab distribution (Europe-heavy, then the Americas, Asia,
// Australia).
func Catalog() []Location {
	return slices.Clone(catalog[:])
}

// FindLocation returns the catalog entry with the given name.
func FindLocation(name string) (Location, bool) {
	for _, l := range catalog[:] {
		if l.Name == name {
			return l, true
		}
	}
	return Location{}, false
}

// catalog is the city catalog behind Catalog and FindLocation.
var catalog = [...]Location{
	// Cloud data centers (paper: Softlayer).
	{Name: "WashingtonDC", Continent: "NA", LatDeg: 38.9, LonDeg: -77.0},
	{Name: "SanJose", Continent: "NA", LatDeg: 37.3, LonDeg: -121.9},
	{Name: "Dallas", Continent: "NA", LatDeg: 32.8, LonDeg: -96.8},
	{Name: "Amsterdam", Continent: "EU", LatDeg: 52.4, LonDeg: 4.9},
	{Name: "Tokyo", Continent: "AS", LatDeg: 35.7, LonDeg: 139.7},
	{Name: "London", Continent: "EU", LatDeg: 51.5, LonDeg: -0.1},
	{Name: "Singapore", Continent: "AS", LatDeg: 1.35, LonDeg: 103.8},
	{Name: "Sydney", Continent: "OC", LatDeg: -33.9, LonDeg: 151.2},
	{Name: "SaoPaulo", Continent: "SA", LatDeg: -23.5, LonDeg: -46.6},
	// Server cities (paper: Eclipse mirrors).
	{Name: "Toronto", Continent: "NA", LatDeg: 43.7, LonDeg: -79.4},
	{Name: "Portland", Continent: "NA", LatDeg: 45.5, LonDeg: -122.7},
	{Name: "Atlanta", Continent: "NA", LatDeg: 33.7, LonDeg: -84.4},
	{Name: "Munich", Continent: "EU", LatDeg: 48.1, LonDeg: 11.6},
	{Name: "Zurich", Continent: "EU", LatDeg: 47.4, LonDeg: 8.5},
	{Name: "Osaka", Continent: "AS", LatDeg: 34.7, LonDeg: 135.5},
	{Name: "Seoul", Continent: "AS", LatDeg: 37.6, LonDeg: 127.0},
	{Name: "Beijing", Continent: "AS", LatDeg: 39.9, LonDeg: 116.4},
	{Name: "NewYork", Continent: "NA", LatDeg: 40.7, LonDeg: -74.0},
	{Name: "Chicago", Continent: "NA", LatDeg: 41.9, LonDeg: -87.6},
	// Additional client cities.
	{Name: "Paris", Continent: "EU", LatDeg: 48.9, LonDeg: 2.4},
	{Name: "Madrid", Continent: "EU", LatDeg: 40.4, LonDeg: -3.7},
	{Name: "Rome", Continent: "EU", LatDeg: 41.9, LonDeg: 12.5},
	{Name: "Warsaw", Continent: "EU", LatDeg: 52.2, LonDeg: 21.0},
	{Name: "Stockholm", Continent: "EU", LatDeg: 59.3, LonDeg: 18.1},
	{Name: "Dublin", Continent: "EU", LatDeg: 53.3, LonDeg: -6.3},
	{Name: "Lisbon", Continent: "EU", LatDeg: 38.7, LonDeg: -9.1},
	{Name: "Athens", Continent: "EU", LatDeg: 38.0, LonDeg: 23.7},
	{Name: "Helsinki", Continent: "EU", LatDeg: 60.2, LonDeg: 24.9},
	{Name: "Vienna", Continent: "EU", LatDeg: 48.2, LonDeg: 16.4},
	{Name: "Seattle", Continent: "NA", LatDeg: 47.6, LonDeg: -122.3},
	{Name: "Denver", Continent: "NA", LatDeg: 39.7, LonDeg: -105.0},
	{Name: "Miami", Continent: "NA", LatDeg: 25.8, LonDeg: -80.2},
	{Name: "Boston", Continent: "NA", LatDeg: 42.4, LonDeg: -71.1},
	{Name: "LosAngeles", Continent: "NA", LatDeg: 34.1, LonDeg: -118.2},
	{Name: "MexicoCity", Continent: "NA", LatDeg: 19.4, LonDeg: -99.1},
	{Name: "Vancouver", Continent: "NA", LatDeg: 49.3, LonDeg: -123.1},
	{Name: "BuenosAires", Continent: "SA", LatDeg: -34.6, LonDeg: -58.4},
	{Name: "Santiago", Continent: "SA", LatDeg: -33.4, LonDeg: -70.7},
	{Name: "Bogota", Continent: "SA", LatDeg: 4.7, LonDeg: -74.1},
	{Name: "HongKong", Continent: "AS", LatDeg: 22.3, LonDeg: 114.2},
	{Name: "Taipei", Continent: "AS", LatDeg: 25.0, LonDeg: 121.6},
	{Name: "Mumbai", Continent: "AS", LatDeg: 19.1, LonDeg: 72.9},
	{Name: "Bangkok", Continent: "AS", LatDeg: 13.8, LonDeg: 100.5},
	{Name: "Melbourne", Continent: "OC", LatDeg: -37.8, LonDeg: 145.0},
	{Name: "Brisbane", Continent: "OC", LatDeg: -27.5, LonDeg: 153.0},
}
