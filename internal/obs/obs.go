// Package obs is the stdlib-only observability layer of the real-socket
// overlay stack: a concurrent metrics registry (counters, gauges,
// fixed-bucket histograms) cheap enough for per-segment hot paths, a
// Prometheus-text and JSON exposition surface (see expose.go), and a
// flow-event ring with per-component scoped loggers (see events.go).
//
// Design rules:
//
//   - The record path (Counter.Add, Gauge.Set, Histogram.Observe) is
//     allocation-free and lock-free — atomic operations only.
//   - Every instrument and the Registry itself are nil-safe: a nil
//     *Registry hands out nil instruments whose methods are no-ops, so
//     components take an optional *Registry and never branch on it.
//   - Instrument handles are resolved once at setup (that path may lock
//     and allocate) and then used forever.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Buckets are defined by their
// inclusive upper bounds; one implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample. Allocation-free; no-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples recorded (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets is the default histogram scale for latencies in seconds:
// 1 ms to ~30 s, roughly doubling.
var LatencyBuckets = []float64{
	0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// metricKind discriminates registered instruments.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// entry is one registered metric.
type entry struct {
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// Registry holds named metrics plus the flow-event ring. The zero value is
// not usable; construct with NewRegistry. A nil *Registry is a valid no-op
// sink: every method returns a nil (no-op) instrument or does nothing.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
	events  *EventRing
}

// NewRegistry creates an empty registry with a default-capacity event ring.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]entry),
		events:  NewEventRing(DefaultEventCapacity),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry; panics if the name is already
// registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindCounter, func(e *entry) {
		if e.c == nil {
			e.c = &Counter{}
		}
	}).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindGauge, func(e *entry) {
		if e.g == nil {
			e.g = &Gauge{}
		}
	}).g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (which must be sorted ascending; a copy is
// kept). Bounds are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindHistogram, func(e *entry) {
		if e.h == nil {
			b := append([]float64(nil), bounds...)
			e.h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for mirroring counters a component already keeps (e.g.
// relay.Stats atomics) without touching its hot path. Re-registering
// replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.get(name, help, kindCounterFunc, func(e *entry) { e.fn = fn })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.get(name, help, kindGaugeFunc, func(e *entry) { e.fn = fn })
}

// get finds or creates the entry for name with the given kind and help,
// fills in its instrument or func with set, and returns a copy. set runs
// under r.mu, so a scrape, which copies entries under the same lock,
// never sees a half-built one. Caller must not hold r.mu.
func (r *Registry) get(name, help string, kind metricKind, set func(*entry)) entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = entry{kind: kind, help: help}
	} else if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
	}
	set(&e)
	r.entries[name] = e
	return e
}

// Events returns the registry's flow-event ring (nil on a nil registry).
func (r *Registry) Events() *EventRing {
	if r == nil {
		return nil
	}
	return r.events
}

// Label formats a single-label series name: Label("x_total", "dir", "up")
// is `x_total{dir="up"}`. Exposition groups series by base name, so
// labeled siblings share one HELP/TYPE header.
func Label(name, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}
