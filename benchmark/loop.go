package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// window is one closed-loop measurement: a single client calls the op
// back to back, so the next op starts only when the previous one has
// finished — the gateway's users are TCP clients that each wait for
// their reply.
type window struct {
	lat       *hist // latency of every completed op
	perSec    []int // completed ops per whole second of the window
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	elapsed   time.Duration
	cpu       time.Duration // process user+sys CPU over the window
	mallocs   uint64
	allocB    uint64
	gcs       uint32
}

// maxErrs bounds how many failure messages a window keeps.
const maxErrs = 5

// runFor calls op until d has passed. next numbers the ops, so inputs
// differ from op to op and from window to window.
func runFor(d time.Duration, next *int, op func(i int) error) *window {
	w := &window{lat: newHist()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		err := op(*next)
		*next++
		t1 := time.Now()
		w.attempted++
		if err != nil {
			w.failed++
			if len(w.errs) < maxErrs {
				w.errs = append(w.errs, err.Error())
			}
			continue
		}
		w.lat.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		sec := int(t1.Sub(start) / time.Second)
		for len(w.perSec) <= sec {
			w.perSec = append(w.perSec, 0)
		}
		w.perSec[sec]++
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcs = ms1.NumGC - ms0.NumGC
	// Only whole seconds count as rate samples: the last bucket holds the
	// ops that finished after the window's end.
	if full := int(d / time.Second); len(w.perSec) > full {
		w.perSec = w.perSec[:full]
	}
	return w
}

// merge folds o into w, as if both had been one window.
func (w *window) merge(o *window) {
	w.lat.merge(o.lat)
	w.perSec = append(w.perSec, o.perSec...)
	w.attempted += o.attempted
	w.failed += o.failed
	for _, e := range o.errs {
		if len(w.errs) < maxErrs {
			w.errs = append(w.errs, e)
		}
	}
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.allocB += o.allocB
	w.gcs += o.gcs
}

// completed is the number of ops that succeeded.
func (w *window) completed() int { return w.lat.n }

// opsPerSec is the median of the per-second completion counts, which a
// stall of a fraction of a second moves less than a mean would. Windows
// shorter than three seconds fall back to completed ÷ elapsed.
func (w *window) opsPerSec() float64 {
	if len(w.perSec) >= 3 {
		xs := make([]float64, len(w.perSec))
		for i, n := range w.perSec {
			xs[i] = float64(n)
		}
		return median(xs)
	}
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.completed()) / w.elapsed.Seconds()
}

// perOp divides a window total by the completed ops.
func (w *window) perOp(total float64) float64 {
	if w.completed() == 0 {
		return 0
	}
	return total / float64(w.completed())
}

// errSummary describes a window's failures for the correctness block.
func (w *window) errSummary(what string) []string {
	if w.failed == 0 {
		return nil
	}
	out := []string{fmt.Sprintf("%s: %d of %d ops failed", what, w.failed, w.attempted)}
	return append(out, w.errs...)
}

// hist is a histogram of op latencies in µs with buckets 0.1% wide from
// 0.1 µs to 100 s. Its memory is fixed whatever the op rate: a slice of
// every sample would grow with the rate and show in rss_peak_MB.
type hist struct {
	counts []uint32
	n      int
}

const (
	histMin    = 0.1 // µs
	histGrowth = 1.001
)

var histBuckets = int(math.Log(1e8/histMin)/math.Log(histGrowth)) + 1

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(us float64) {
	k := 0
	if us > histMin {
		k = min(int(math.Log(us/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[k]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for k, c := range o.counts {
		h.counts[k] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0..100), interpolating
// geometrically inside the bucket that holds the rank, so it is within
// 0.1% of the exact order statistic. It is 0 when no op completed, so a
// run whose every op failed still prints its result.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n-1)
	seen := 0.0
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			f := (rank - seen + 0.5) / float64(c)
			return histMin * math.Pow(histGrowth, float64(k)+f)
		}
		seen += float64(c)
	}
	return histMin * math.Pow(histGrowth, float64(histBuckets))
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for no xs. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so the numbers here match the acceptance check
// made on the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
