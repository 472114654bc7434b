package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func loc(t *testing.T, name string) Location {
	t.Helper()
	l, ok := FindLocation(name)
	if !ok {
		t.Fatalf("catalog is missing %q", name)
	}
	return l
}

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		a, b   string
		wantKm float64
		tolKm  float64
	}{
		{"NewYork", "London", 5570, 300},
		{"Tokyo", "SanJose", 8300, 400},
		{"Amsterdam", "Sydney", 16650, 600},
		{"Dallas", "Chicago", 1290, 150},
	}
	for _, tt := range tests {
		got := DistanceKm(loc(t, tt.a), loc(t, tt.b))
		if got < tt.wantKm-tt.tolKm || got > tt.wantKm+tt.tolKm {
			t.Errorf("Distance(%s, %s) = %.0f km, want %.0f +- %.0f",
				tt.a, tt.b, got, tt.wantKm, tt.tolKm)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Location{LatDeg: wrap(lat1, 90), LonDeg: wrap(lon1, 180)}
		b := Location{LatDeg: wrap(lat2, 90), LonDeg: wrap(lon2, 180)}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		// Symmetric, non-negative, bounded by half the circumference.
		return dab >= 0 && dab <= 20040 && abs(dab-dba) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceZero(t *testing.T) {
	a := loc(t, "Paris")
	if d := DistanceKm(a, a); d > 1e-9 {
		t.Errorf("self distance = %v", d)
	}
}

func TestPropagationDelay(t *testing.T) {
	// Transatlantic NY-London: geodesic ~5570 km, stretched 1.6x at
	// 200 km/ms -> ~45 ms one-way.
	d := PropagationDelay(loc(t, "NewYork"), loc(t, "London"))
	if d < 35*time.Millisecond || d > 60*time.Millisecond {
		t.Errorf("NY-London one-way delay = %v, want ~45ms", d)
	}
	// Delay floor for co-located nodes.
	a := loc(t, "Paris")
	if d := PropagationDelay(a, a); d < 100*time.Microsecond {
		t.Errorf("co-located delay = %v, want >= 0.1ms floor", d)
	}
}

func TestCatalogWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	continents := make(map[string]int)
	for _, l := range Catalog() {
		if seen[l.Name] {
			t.Errorf("duplicate catalog city %q", l.Name)
		}
		seen[l.Name] = true
		if l.LatDeg < -90 || l.LatDeg > 90 || l.LonDeg < -180 || l.LonDeg > 180 {
			t.Errorf("%s has invalid coordinates (%v, %v)", l.Name, l.LatDeg, l.LonDeg)
		}
		continents[l.Continent]++
	}
	// The paper's measurement spans five continents.
	for _, c := range []string{"NA", "EU", "AS", "SA", "OC"} {
		if continents[c] == 0 {
			t.Errorf("catalog has no city on continent %s", c)
		}
	}
}

func TestFindLocation(t *testing.T) {
	if _, ok := FindLocation("Tokyo"); !ok {
		t.Error("Tokyo not found")
	}
	if _, ok := FindLocation("Atlantis"); ok {
		t.Error("Atlantis should not exist")
	}
}

// TestFindLocationReadsTheCatalogInPlace: a lookup allocates nothing, and
// a caller that edits its Catalog slice changes neither later Catalog
// calls nor FindLocation.
func TestFindLocationReadsTheCatalogInPlace(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { FindLocation("Brisbane") }); n != 0 {
		t.Errorf("FindLocation allocates %v times per call, want 0", n)
	}
	c := Catalog()
	want := c[0]
	c[0].Name = "Atlantis"
	if got := Catalog()[0]; got != want {
		t.Errorf("Catalog()[0] = %v after editing an earlier copy, want %v", got, want)
	}
	if l, ok := FindLocation(want.Name); !ok || l != want {
		t.Errorf("FindLocation(%q) = %v, %v after editing a Catalog copy", want.Name, l, ok)
	}
	if _, ok := FindLocation("Atlantis"); ok {
		t.Error("FindLocation sees an edit made to a Catalog copy")
	}
}

func TestLocationString(t *testing.T) {
	l := Location{Name: "Paris", Continent: "EU"}
	if got := l.String(); got != "Paris (EU)" {
		t.Errorf("String = %q", got)
	}
}

func wrap(x, lim float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	// Fold into [-lim, lim] in constant time (quick feeds huge values).
	x = math.Mod(x, 2*lim)
	if x > lim {
		x -= 2 * lim
	}
	if x < -lim {
		x += 2 * lim
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
