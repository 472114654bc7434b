// Package stats provides the small statistical toolkit used throughout the
// CRONets reproduction: empirical CDFs, percentiles, robust location/scale
// estimates, and histogram binning helpers matching the figures in the paper.
//
// All functions are pure and operate on copies of their inputs; callers never
// observe their slices being reordered.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the sample median (the 50th percentile, with linear
// interpolation between the two middle order statistics for even-sized
// samples). It returns 0 for an empty sample.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile of xs, p in [0, 100], using linear
// interpolation between closest ranks. It returns 0 for an empty sample and
// clamps p into [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// StdDev returns the population standard deviation of xs. It returns 0 for
// samples of size < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// MedianAbsDev returns the median absolute deviation from the median, the
// robust spread estimate used for the error bars of Figure 9 and 10.
func MedianAbsDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// FractionAbove returns the fraction of samples strictly greater than
// threshold. It returns 0 for an empty sample.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDF is an empirical cumulative distribution function over a finite sample.
// The zero value is an empty CDF; use NewCDF to build one from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of samples in the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples less than or equal to x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// Min returns the smallest sample, or 0 for an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max returns the largest sample, or 0 for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns n evenly spaced (x, P(X<=x)) pairs spanning the sample
// range, suitable for plotting the CDF curves of Figures 2-5 and 8.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	lo, hi := c.Min(), c.Max()
	if n == 1 || lo == hi {
		return []Point{{X: hi, Y: 1}}
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// LogPoints returns n (x, P(X<=x)) pairs spaced evenly in log10(x) between
// the smallest positive sample and the maximum, matching the paper's
// logarithmic X axes. Non-positive samples contribute to the Y values but
// generate no X points.
func (c *CDF) LogPoints(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	var lo float64
	for _, v := range c.sorted {
		if v > 0 {
			lo = v
			break
		}
	}
	hi := c.Max()
	if lo <= 0 || hi <= lo {
		return c.Points(n)
	}
	if n == 1 {
		return []Point{{X: hi, Y: 1}}
	}
	logLo, logHi := math.Log10(lo), math.Log10(hi)
	step := (logHi - logLo) / float64(n-1)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := math.Pow(10, logLo+float64(i)*step)
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is a single (x, y) sample of a curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Bin is a half-open interval [Lo, Hi) with the samples that fell into it.
// Hi = +Inf denotes an unbounded final bin.
type Bin struct {
	Lo, Hi  float64
	Samples []float64
}

// Label renders the bin bounds in the paper's interval notation, e.g.
// "[70,140)" or "[280,inf)".
func (b Bin) Label() string {
	if math.IsInf(b.Hi, 1) {
		return fmt.Sprintf("[%g,inf)", b.Lo)
	}
	return fmt.Sprintf("[%g,%g)", b.Lo, b.Hi)
}

// BinBy partitions the samples into bins delimited by the sorted edge values.
// Edges {e0, e1, ..., ek} produce bins [e0,e1), [e1,e2), ..., [ek, +Inf).
// key extracts the binning value for a sample; value extracts the number
// stored in the bin. Samples below e0 are dropped.
func BinBy[T any](items []T, edges []float64, key, value func(T) float64) []Bin {
	if len(edges) == 0 {
		return nil
	}
	bins := make([]Bin, len(edges))
	for i := range edges {
		bins[i].Lo = edges[i]
		if i+1 < len(edges) {
			bins[i].Hi = edges[i+1]
		} else {
			bins[i].Hi = math.Inf(1)
		}
	}
	for _, it := range items {
		k := key(it)
		if k < edges[0] {
			continue
		}
		// Find the last edge <= k.
		idx := sort.SearchFloat64s(edges, k)
		if idx == len(edges) || edges[idx] > k {
			idx--
		}
		bins[idx].Samples = append(bins[idx].Samples, value(it))
	}
	return bins
}

// ImprovementRatio returns overlay/direct, the throughput improvement ratio
// used throughout the paper. A zero or negative direct value yields +Inf when
// the overlay value is positive, and 1 when both are non-positive (no
// meaningful comparison).
func ImprovementRatio(overlay, direct float64) float64 {
	if direct <= 0 {
		if overlay > 0 {
			return math.Inf(1)
		}
		return 1
	}
	return overlay / direct
}

// Finite returns the finite elements of xs in order, dropping the
// infinite ratios of zero-throughput direct paths and any NaN.
func Finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// MeanFinite returns the mean over the finite elements of xs, guarding the
// "average improvement factor" statistics against infinite ratios produced by
// zero-throughput direct paths. The second return is the number of finite
// samples used.
func MeanFinite(xs []float64) (float64, int) {
	var sum float64
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
