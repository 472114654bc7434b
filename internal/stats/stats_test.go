package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	tests := []struct {
		name      string
		xs        []float64
		mean, med float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 3},
		{"odd", []float64{1, 3, 2}, 2, 2},
		{"even", []float64{1, 2, 3, 4}, 2.5, 2.5},
		{"skewed", []float64{1, 1, 1, 97}, 25, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Median(tt.xs); math.Abs(got-tt.med) > 1e-12 {
				t.Errorf("Median = %v, want %v", got, tt.med)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {-5, 10}, {110, 50},
		{10, 14}, // interpolated
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("StdDev of constant = %v, want 0", got)
	}
	// Population sd of {1, 3} is 1.
	if got := StdDev([]float64{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("StdDev = %v, want 1", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev of singleton = %v, want 0", got)
	}
}

func TestMedianAbsDev(t *testing.T) {
	// Median 3; deviations {2,1,0,1,2} -> MAD 1.
	if got := MedianAbsDev([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("MAD = %v, want 1", got)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.5, 1, 1.5, 2}
	if got := FractionAbove(xs, 1); got != 0.5 {
		t.Errorf("FractionAbove(1) = %v, want 0.5 (strictly greater)", got)
	}
	if got := FractionAbove(nil, 1); got != 0 {
		t.Errorf("FractionAbove(empty) = %v", got)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	tests := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {9, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Quantile(0.5) != 0 || c.Len() != 0 {
		t.Error("empty CDF should return zeros")
	}
	if pts := c.Points(5); pts != nil {
		t.Errorf("empty CDF points = %v", pts)
	}
}

// TestCDFMonotonic is the core CDF invariant: At is non-decreasing and
// bounded in [0, 1].
func TestCDFMonotonic(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		ya, yb := c.At(lo), c.At(hi)
		return ya >= 0 && yb <= 1 && ya <= yb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuantileInverse: for any sample, At(Quantile(q)) covers q up to the
// resolution of one order statistic (Quantile interpolates linearly
// between order statistics, so the step CDF can lag by at most 1/n).
func TestQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(xs)
		q := rng.Float64()
		if got := c.At(c.Quantile(q)); got < q-1.0/float64(n)-1e-9 {
			t.Fatalf("At(Quantile(%v)) = %v < q - 1/n (n=%d)", q, got, n)
		}
	}
}

func TestPointsCoverRange(t *testing.T) {
	c := NewCDF([]float64{1, 5, 9})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 1 || pts[4].X != 9 {
		t.Errorf("points do not span range: %v", pts)
	}
	if pts[4].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[4].Y)
	}
}

func TestLogPoints(t *testing.T) {
	c := NewCDF([]float64{0.01, 0.1, 1, 10, 100})
	pts := c.LogPoints(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	// X values should be logarithmically spaced: ratios roughly constant.
	r1 := pts[1].X / pts[0].X
	r2 := pts[2].X / pts[1].X
	if math.Abs(r1-r2) > 1e-6 {
		t.Errorf("log spacing broken: %v vs %v", r1, r2)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last Y = %v", pts[len(pts)-1].Y)
	}
}

func TestBinLabel(t *testing.T) {
	if got := (Bin{Lo: 70, Hi: 140}).Label(); got != "[70,140)" {
		t.Errorf("Label = %q", got)
	}
	if got := (Bin{Lo: 280, Hi: math.Inf(1)}).Label(); got != "[280,inf)" {
		t.Errorf("Label = %q", got)
	}
}

func TestBinBy(t *testing.T) {
	type item struct{ k, v float64 }
	items := []item{{10, 1}, {75, 2}, {139, 3}, {140, 4}, {500, 5}, {-3, 6}}
	bins := BinBy(items, []float64{0, 70, 140},
		func(i item) float64 { return i.k }, func(i item) float64 { return i.v })
	if len(bins) != 3 {
		t.Fatalf("got %d bins", len(bins))
	}
	if len(bins[0].Samples) != 1 || bins[0].Samples[0] != 1 {
		t.Errorf("bin0 = %v", bins[0].Samples)
	}
	if len(bins[1].Samples) != 2 {
		t.Errorf("bin1 = %v", bins[1].Samples)
	}
	if len(bins[2].Samples) != 2 {
		t.Errorf("bin2 = %v (140 and 500 belong here; -3 dropped)", bins[2].Samples)
	}
}

// TestBinByPartition: every sample >= first edge lands in exactly one bin.
func TestBinByPartition(t *testing.T) {
	f := func(keys []float64) bool {
		edges := []float64{0, 10, 100}
		clean := make([]float64, 0, len(keys))
		for _, k := range keys {
			if !math.IsNaN(k) && !math.IsInf(k, 0) {
				clean = append(clean, math.Abs(k))
			}
		}
		bins := BinBy(clean, edges, func(x float64) float64 { return x },
			func(x float64) float64 { return x })
		total := 0
		for _, b := range bins {
			total += len(b.Samples)
			for _, s := range b.Samples {
				if s < b.Lo || (!math.IsInf(b.Hi, 1) && s >= b.Hi) {
					return false
				}
			}
		}
		return total == len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestImprovementRatio(t *testing.T) {
	if got := ImprovementRatio(10, 5); got != 2 {
		t.Errorf("ratio = %v", got)
	}
	if got := ImprovementRatio(10, 0); !math.IsInf(got, 1) {
		t.Errorf("ratio with zero direct = %v, want +Inf", got)
	}
	if got := ImprovementRatio(0, 0); got != 1 {
		t.Errorf("ratio with both zero = %v, want 1", got)
	}
}

func TestFinite(t *testing.T) {
	got := Finite([]float64{1, math.Inf(1), -2, math.NaN(), math.Inf(-1), math.MaxFloat64})
	if want := []float64{1, -2, math.MaxFloat64}; !slices.Equal(got, want) {
		t.Errorf("Finite = %v, want %v", got, want)
	}
	if got := Finite(nil); len(got) != 0 {
		t.Errorf("Finite(nil) = %v", got)
	}
}

func TestMeanFinite(t *testing.T) {
	mean, n := MeanFinite([]float64{1, 2, math.Inf(1), math.NaN(), 3})
	if n != 3 || mean != 2 {
		t.Errorf("MeanFinite = %v over %d", mean, n)
	}
	if _, n := MeanFinite(nil); n != 0 {
		t.Errorf("MeanFinite(nil) n = %d", n)
	}
}

// TestPercentileOrderStatistics: percentiles are monotone in p and bounded
// by the sample extremes.
func TestPercentileOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				t.Fatalf("percentile not monotone at p=%v", p)
			}
			if v < sorted[0]-1e-9 || v > sorted[n-1]+1e-9 {
				t.Fatalf("percentile %v outside sample range", v)
			}
			prev = v
		}
	}
}
