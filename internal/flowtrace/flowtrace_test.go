package flowtrace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testContext() Context {
	var c Context
	for i := range c.Trace {
		c.Trace[i] = byte(i + 1)
	}
	c.Span = 0x1234_5678_9ABC_DEF0 &^ sampledBit
	c.Sampled = true
	return c
}

func TestContextBinaryRoundTrip(t *testing.T) {
	c := testContext()
	var wire [WireSize]byte
	if n := c.EncodeBinary(wire[:]); n != WireSize {
		t.Fatalf("EncodeBinary = %d, want %d", n, WireSize)
	}
	got, ok := DecodeBinary(wire[:])
	if !ok || got != c {
		t.Fatalf("DecodeBinary = %+v, %v; want %+v, true", got, ok, c)
	}

	c.Sampled = false
	c.EncodeBinary(wire[:])
	got, ok = DecodeBinary(wire[:])
	if !ok || got.Sampled {
		t.Fatalf("unsampled context decoded as %+v, %v", got, ok)
	}
}

func TestContextBinaryRejects(t *testing.T) {
	if _, ok := DecodeBinary(make([]byte, WireSize-1)); ok {
		t.Error("short buffer decoded ok")
	}
	// A zero trace ID is not a valid wire context, whatever the span
	// word says: the decoder returns the zero Context with ok false.
	wire := make([]byte, WireSize)
	wire[16], wire[23] = 0x80, 42
	if c, ok := DecodeBinary(wire); ok || c != (Context{}) {
		t.Errorf("zero trace ID decoded as %+v, %v; want the zero Context, false", c, ok)
	}
}

func TestContextTextRoundTrip(t *testing.T) {
	c := testContext()
	s := c.EncodeText()
	if len(s) != TextSize {
		t.Fatalf("EncodeText length = %d, want %d", len(s), TextSize)
	}
	got, ok := DecodeText(s)
	if !ok || got != c {
		t.Fatalf("DecodeText = %+v, %v; want %+v, true", got, ok, c)
	}
	// Uppercase hex decodes too.
	if _, ok := DecodeText(strings.ToUpper(s)); !ok {
		t.Error("uppercase hex rejected")
	}
}

func TestContextTextRejects(t *testing.T) {
	c := testContext()
	s := c.EncodeText()
	for _, bad := range []string{"", s[:TextSize-1], s + "00", strings.Replace(s, s[:1], "x", 1)} {
		if _, ok := DecodeText(bad); ok {
			t.Errorf("DecodeText(%q) ok, want rejection", bad)
		}
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if s := tr.Start("x", Context{}); s != nil {
		t.Fatalf("nil tracer Start = %v, want nil", s)
	}
	if s := tr.Continue("x", testContext()); s != nil {
		t.Fatalf("nil tracer Continue = %v, want nil", s)
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", got)
	}
	var s *Span
	s.AddBytes(10)
	s.MarkFirstByte()
	s.SetDetail("d")
	s.End()
	if s.Ended() || s.Bytes() != 0 || s.Duration() != 0 {
		t.Error("nil span reported state")
	}
	if _, ok := s.FirstByte(); ok {
		t.Error("nil span reported a first byte")
	}
	if c := s.Context(); !c.IsZero() || c.Sampled {
		t.Errorf("nil span Context = %+v, want zero", c)
	}
}

func TestSamplingRates(t *testing.T) {
	zero := New(Config{SampleRate: 0, Seed: 1})
	for i := 0; i < 100; i++ {
		if zero.Start("f", Context{}) != nil {
			t.Fatal("rate 0 sampled a root")
		}
	}
	one := New(Config{SampleRate: 1, Seed: 1})
	for i := 0; i < 100; i++ {
		if one.Start("f", Context{}) == nil {
			t.Fatal("rate 1 skipped a root")
		}
	}
	// rate 0.25 -> deterministic 1-in-4.
	quarter := New(Config{SampleRate: 0.25, Seed: 1})
	sampledN := 0
	for i := 0; i < 100; i++ {
		if s := quarter.Start("f", Context{}); s != nil {
			sampledN++
			s.End()
		}
	}
	if sampledN != 25 {
		t.Errorf("rate 0.25 sampled %d of 100, want 25", sampledN)
	}
}

func TestStartContinueSemantics(t *testing.T) {
	tr := New(Config{Node: "n", SampleRate: 1, Seed: 7})
	root := tr.Start("root", Context{})
	if root == nil {
		t.Fatal("root not sampled at rate 1")
	}
	if root.Parent != 0 || root.Trace.IsZero() {
		t.Fatalf("root span = %+v, want parentless with a trace ID", root)
	}
	child := tr.Start("child", root.Context())
	if child == nil || child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child = %+v, want trace %s parent %x", child, root.Trace, root.ID)
	}

	// Continue never originates: zero and unsampled contexts return nil,
	// even on a tracer whose rate would sample a fresh root.
	if s := tr.Continue("hop", Context{}); s != nil {
		t.Error("Continue minted a root from the zero context")
	}
	un := root.Context()
	un.Sampled = false
	if s := tr.Continue("hop", un); s != nil {
		t.Error("Continue followed an unsampled context")
	}
	hop := tr.Continue("hop", root.Context())
	if hop == nil || hop.Parent != root.ID {
		t.Fatalf("Continue = %+v, want child of root", hop)
	}

	// An unsampled parent passed to Start is also not recorded.
	if s := tr.Start("child", un); s != nil {
		t.Error("Start followed an unsampled parent")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(Config{Node: "n", SampleRate: 1, Seed: 3})
	s := tr.Start("op", Context{})
	s.AddBytes(100)
	s.AddBytes(28)
	s.MarkFirstByte()
	first, ok := s.FirstByte()
	if !ok || first < 0 {
		t.Fatalf("FirstByte = %v, %v", first, ok)
	}
	s.MarkFirstByte() // only the first call counts
	again, _ := s.FirstByte()
	if again != first {
		t.Errorf("second MarkFirstByte moved the mark: %v != %v", again, first)
	}
	s.SetDetail("d")
	if s.Ended() {
		t.Error("Ended before End")
	}
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("ring has %d spans before End", got)
	}
	s.End()
	s.End() // idempotent
	if !s.Ended() || s.Bytes() != 128 || s.Duration() <= 0 {
		t.Fatalf("after End: ended=%v bytes=%d dur=%v", s.Ended(), s.Bytes(), s.Duration())
	}
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("ring has %d spans after End, want 1", got)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 9})
	for i := 0; i < ringSize+12; i++ {
		tr.Start("op", Context{}).End()
	}
	spans := tr.Snapshot()
	if len(spans) != ringSize {
		t.Fatalf("ring holds %d spans, want %d", len(spans), ringSize)
	}
}

func TestTracesAssembly(t *testing.T) {
	tr := New(Config{Node: "n", SampleRate: 1, Seed: 11})
	root := tr.Start("gateway.flow", Context{})
	child := tr.Start("gateway.dial", root.Context())
	grand := tr.Start("relay.splice", child.Context())
	grand.End()
	child.End()
	time.Sleep(time.Millisecond)
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("Traces = %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.TraceID != root.Trace.String() || got.Root != "gateway.flow" {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(got.Spans))
	}
	if got.Spans[0].Name != "gateway.flow" || got.Spans[0].ParentID != "" {
		t.Errorf("first span = %+v, want the root", got.Spans[0])
	}
	if got.DurationMS <= 0 {
		t.Errorf("DurationMS = %v, want > 0", got.DurationMS)
	}
}

func decodeTraces(t *testing.T, h http.Handler, url string) ([]Trace, *httptest.ResponseRecorder) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return nil, rec
	}
	var out []Trace
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out, rec
}

func TestHandlerFilters(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 13})
	a := tr.Start("a", Context{})
	a.End()
	b := tr.Start("b", Context{})
	b.End()
	h := tr.Handler()

	all, _ := decodeTraces(t, h, "/debug/traces")
	if len(all) != 2 {
		t.Fatalf("unfiltered = %d traces, want 2", len(all))
	}
	one, _ := decodeTraces(t, h, "/debug/traces?trace="+a.Trace.String())
	if len(one) != 1 || one[0].TraceID != a.Trace.String() {
		t.Fatalf("?trace= returned %+v", one)
	}
	none, _ := decodeTraces(t, h, "/debug/traces?trace="+strings.Repeat("0", 32))
	if len(none) != 0 {
		t.Fatalf("bogus trace ID returned %d traces", len(none))
	}
	long, _ := decodeTraces(t, h, "/debug/traces?min_dur=1h")
	if len(long) != 0 {
		t.Fatalf("min_dur=1h returned %d traces", len(long))
	}
	if _, rec := decodeTraces(t, h, "/debug/traces?min_dur=banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad min_dur status = %d, want 400", rec.Code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// TestUnsampledPathAllocs is the CI gate on the instrumented data path:
// an unsampled flow must not allocate in Start or in any no-op span
// method.
func TestUnsampledPathAllocs(t *testing.T) {
	tr := New(Config{SampleRate: 0, Seed: 5})
	remote := testContext()
	remote.Sampled = false
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Start("gateway.flow", Context{})
		s.MarkFirstByte()
		s.AddBytes(4096)
		s.End()
		h := tr.Continue("relay.splice", remote)
		h.AddBytes(4096)
		h.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f per op, want 0", allocs)
	}
}

func TestGoContextRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 17})
	s := tr.Start("f", Context{})
	ctx := NewGoContext(t.Context(), s.Context())
	if got := FromGoContext(ctx); got != s.Context() {
		t.Fatalf("FromGoContext = %+v, want %+v", got, s.Context())
	}
	// Unsampled contexts are not stashed.
	if ctx2 := NewGoContext(t.Context(), Context{}); FromGoContext(ctx2).Sampled {
		t.Error("zero context survived NewGoContext")
	}
	if got := FromGoContext(nil); !got.IsZero() {
		t.Errorf("FromGoContext(nil) = %+v", got)
	}
}
