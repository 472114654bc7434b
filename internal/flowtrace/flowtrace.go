// Package flowtrace is lightweight distributed tracing for overlay
// flows: a trace starts at the gateway, a compact 24-byte context (trace
// ID, parent span ID, sampling bit) rides the relay CONNECT preamble and
// the tunnel frame header across hops, and each hop — gateway path
// selection, relay dial and splice, multipath send/receive, netem
// shaping — records spans with wall-clock timestamps, byte counts, and
// first-byte latency into a bounded lock-free per-node span ring.
//
// Design rules, matching internal/obs:
//
//   - Sampling is decided once, at the root. The unsampled path is
//     allocation-free: Start returns a nil *Span and every Span method
//     is a nil-safe no-op, so data-plane code records unconditionally.
//   - Completed spans are published into the ring with one atomic
//     pointer store; readers (the /debug/traces assembler) only ever see
//     fully-ended spans.
//   - A nil *Tracer is a valid no-op: components take an optional
//     *Tracer and never branch on it.
package flowtrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"cronets/internal/obs"
)

// Config parameterizes a Tracer. The zero value samples nothing.
type Config struct {
	// Node names this tracer's node in span records (e.g. "gateway",
	// "relay-fra"). Defaults to "node".
	Node string
	// SampleRate is the fraction of root Start calls that begin a
	// recorded trace: <= 0 never samples, >= 1 samples every flow, and
	// anything between samples deterministically 1-in-round(1/rate).
	// Spans continuing a remote context follow the context's sampling
	// bit and ignore this rate.
	SampleRate float64
	// Seed perturbs trace/span ID generation; 0 derives one from the
	// clock. Fix it for reproducible IDs in tests.
	Seed uint64
	// Obs receives tracer metrics and flow-trace completion events (nil
	// disables instrumentation).
	Obs *obs.Registry
}

// ringSize bounds the completed-span ring. Oldest spans are overwritten
// first.
const ringSize = 4096

// Tracer makes sampling decisions, mints IDs, and owns the node's
// completed-span ring. A nil *Tracer is a valid no-op.
type Tracer struct {
	node   string
	period uint64 // sample 1-in-period roots; 0 = never
	seq    atomic.Uint64
	ids    atomic.Uint64 // splitmix64 state

	slots  []atomic.Pointer[Span]
	cursor atomic.Uint64

	scope     *obs.Scope
	spans     *obs.Counter
	sampled   *obs.Counter
	unsampled *obs.Counter
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Node == "" {
		cfg.Node = "node"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	var period uint64
	switch {
	case cfg.SampleRate >= 1:
		period = 1
	case cfg.SampleRate > 0:
		period = uint64(1/cfg.SampleRate + 0.5)
		if period == 0 {
			period = 1
		}
	}
	t := &Tracer{
		node:   cfg.Node,
		period: period,
		slots:  make([]atomic.Pointer[Span], ringSize),
		scope:  cfg.Obs.Scope("flowtrace"),
		spans: cfg.Obs.Counter("cronets_flowtrace_spans_total",
			"Completed spans published into the span ring."),
		sampled: cfg.Obs.Counter("cronets_flowtrace_traces_sampled_total",
			"Root Start calls that began a recorded trace."),
		unsampled: cfg.Obs.Counter("cronets_flowtrace_traces_unsampled_total",
			"Root Start calls skipped by the sampling rate."),
	}
	t.ids.Store(seed)
	return t
}

// Node returns the tracer's node name ("" on nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// rnd draws the next ID word (splitmix64 over an atomic state — no
// locks, no allocation).
func (t *Tracer) rnd() uint64 {
	x := t.ids.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sampleRoot decides whether a new root trace is recorded.
func (t *Tracer) sampleRoot() bool {
	switch t.period {
	case 0:
		return false
	case 1:
		return true
	}
	return (t.seq.Add(1)-1)%t.period == 0
}

// Start opens a span. With a zero parent it begins a new trace, applying
// the sampling rate; with a non-zero parent it continues that trace,
// following the parent's sampling bit. Unsampled either way returns nil
// — a valid no-op span — without allocating.
func (t *Tracer) Start(name string, parent Context) *Span {
	if t == nil {
		return nil
	}
	// The sampling decision comes before any allocation so the unsampled
	// path stays allocation-free (gated by TestUnsampledPathAllocs).
	root := parent.IsZero()
	if root {
		if !t.sampleRoot() {
			t.unsampled.Inc()
			return nil
		}
		t.sampled.Inc()
	} else if !parent.Sampled {
		return nil
	}
	s := &Span{}
	if root {
		binary.BigEndian.PutUint64(s.Trace[:8], t.rnd())
		binary.BigEndian.PutUint64(s.Trace[8:], t.rnd())
	} else {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	}
	s.tracer = t
	s.ID = t.rnd() &^ sampledBit
	if s.ID == 0 {
		s.ID = 1
	}
	s.Name = name
	s.NodeName = t.node
	s.StartTime = time.Now()
	return s
}

// Continue opens a span only when parent is a sampled remote context —
// the hop-side counterpart of Start for components (relay, netem) that
// never originate traces, only join ones arriving on the wire. Nil-safe
// and allocation-free when parent is unsampled.
func (t *Tracer) Continue(name string, parent Context) *Span {
	if t == nil || !parent.Sampled || parent.IsZero() {
		return nil
	}
	return t.Start(name, parent)
}

// publish stores a completed span into the ring.
func (t *Tracer) publish(s *Span) {
	i := t.cursor.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(s)
	t.spans.Inc()
}

// Snapshot returns the completed spans currently in the ring, oldest
// first (best effort under concurrent writes). Nil-safe.
func (t *Tracer) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	n := uint64(len(t.slots))
	cur := t.cursor.Load()
	out := make([]*Span, 0, n)
	for off := uint64(0); off < n; off++ {
		if s := t.slots[(cur+off)%n].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Span is one timed hop-local operation within a trace. Fields are
// written by the owning goroutine before End; AddBytes and MarkFirstByte
// are atomic and may be called from data-plane goroutines while the span
// is live. All methods are nil-safe no-ops, so unsampled flows carry nil
// spans for free.
type Span struct {
	tracer *Tracer

	Trace    TraceID
	ID       uint64
	Parent   uint64 // 0 for a root span
	Name     string
	NodeName string
	// Detail is a free-form annotation (chosen path, CONNECT target).
	// Set it from the owning goroutine before End; not synchronized.
	Detail    string
	StartTime time.Time

	endNanos  atomic.Int64
	bytes     atomic.Int64
	firstByte atomic.Int64 // UnixNano of the first payload byte
	ended     atomic.Bool
}

// Context returns the propagation context naming this span as parent.
// A nil span returns the zero (unsampled) Context.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.Trace, Span: s.ID, Sampled: true}
}

// AddBytes adds payload bytes to the span's byte count.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.bytes.Add(n)
}

// MarkFirstByte records the first-payload-byte instant; only the first
// call counts.
func (s *Span) MarkFirstByte() {
	if s == nil {
		return
	}
	s.firstByte.CompareAndSwap(0, time.Now().UnixNano())
}

// SetDetail annotates the span. Call from the owning goroutine only.
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.Detail = d
}

// End completes the span, publishing it into the tracer's ring. A root
// span's End also emits a flow-trace completion event. Idempotent.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.endNanos.Store(time.Now().UnixNano())
	s.tracer.publish(s)
	if s.Parent == 0 {
		s.tracer.scope.Event(obs.EventFlowTrace, fmt.Sprintf(
			"trace=%s root=%s dur=%s bytes=%d",
			s.Trace, s.Name, s.Duration().Round(time.Microsecond), s.Bytes()))
	}
}

// Ended reports whether End ran (false for nil).
func (s *Span) Ended() bool { return s != nil && s.ended.Load() }

// Duration returns the span's wall-clock length (0 while running or nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	end := s.endNanos.Load()
	if end == 0 {
		return 0
	}
	return time.Duration(end - s.StartTime.UnixNano())
}

// Bytes returns the recorded payload byte count (0 for nil).
func (s *Span) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes.Load()
}

// FirstByte returns the latency from span start to the first payload
// byte, and whether one was recorded.
func (s *Span) FirstByte() (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	fb := s.firstByte.Load()
	if fb == 0 {
		return 0, false
	}
	return time.Duration(fb - s.StartTime.UnixNano()), true
}

// ctxKey keys a Context inside a context.Context.
type ctxKey struct{}

// NewGoContext returns ctx carrying tc, so trace state can ride the
// standard context plumbing into dial helpers (chain.Dial). An
// unsampled tc returns ctx unchanged.
func NewGoContext(ctx context.Context, tc Context) context.Context {
	if !tc.Sampled || tc.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromGoContext extracts the trace context stashed by NewGoContext, or
// the zero Context.
func FromGoContext(ctx context.Context) Context {
	if ctx == nil {
		return Context{}
	}
	tc, _ := ctx.Value(ctxKey{}).(Context)
	return tc
}
