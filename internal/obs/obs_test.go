package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Error("Counter should return the same instrument for the same name")
	}

	g := r.Gauge("test_depth", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "a histogram", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() < 5.5 || h.Sum() > 5.56 {
		t.Errorf("sum = %g, want ~5.555", h.Sum())
	}
	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRecordPathAllocationFree is the acceptance-criteria gate: the hot
// record path must not allocate.
func TestRecordPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_hist", "", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(42)
		h.Observe(0.017)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v times per op, want 0", allocs)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", LatencyBuckets)
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	r.CounterFunc("y", "", func() int64 { return 0 })
	r.GaugeFunc("y", "", func() int64 { return 0 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments should read zero")
	}
	s := r.Scope("relay")
	s.Event(EventDial, "ok")
	s.Logger().Info("should be discarded")
	if err := r.WriteMetrics(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if got := r.Events().Snapshot(); got != nil {
		t.Errorf("nil ring snapshot = %v, want nil", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a gauge should panic")
		}
	}()
	r.Gauge("dup", "")
}

func TestFuncMetricsAndLabels(t *testing.T) {
	r := NewRegistry()
	var n int64 = 5
	r.CounterFunc("fn_total", "reads a func", func() int64 { return n })
	r.GaugeFunc(Label("sub_bytes_total", "subflow", "0"), "", func() int64 { return 7 })
	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "fn_total 5") {
		t.Errorf("missing fn_total:\n%s", text)
	}
	if !strings.Contains(text, `sub_bytes_total{subflow="0"} 7`) {
		t.Errorf("missing labeled series:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE sub_bytes_total gauge") {
		t.Errorf("labeled series should get a base-name TYPE header:\n%s", text)
	}
}

func TestEventRingWrapsAndSnapshots(t *testing.T) {
	ring := NewEventRing(3)
	for i := 0; i < 5; i++ {
		ring.Record("relay", EventDial, string(rune('a'+i)))
	}
	if ring.Total() != 5 {
		t.Errorf("total = %d, want 5", ring.Total())
	}
	events := ring.Snapshot()
	if len(events) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(events))
	}
	if events[0].Detail != "c" || events[2].Detail != "e" {
		t.Errorf("ring order wrong: %v", events)
	}
	if events[0].Type != "dial" {
		t.Errorf("type = %q, want dial", events[0].Type)
	}
}

func TestScopeRecordsToRing(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("multipath")
	s.Event(EventSubflowDown, "subflow 2 died")
	events := r.Events().Snapshot()
	if len(events) != 1 || events[0].Component != "multipath" ||
		events[0].Type != EventSubflowDown {
		t.Errorf("events = %+v", events)
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "").Add(9)
	r.Scope("relay").Event(EventConnect, "127.0.0.1:1")

	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 9") {
		t.Errorf("metrics body:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.JSONHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["h_total"].(float64) != 9 {
		t.Errorf("json snapshot = %v", snap)
	}

	rec = httptest.NewRecorder()
	r.EventsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0]["type"] != "connect" {
		t.Errorf("events json = %v", events)
	}
}

// publishRuns numbers TestPublishExpvar runs: expvar's table is
// process-wide, so each run (go test -count=N) publishes its own name.
var publishRuns atomic.Int64

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("ev_total", "").Add(1)
	name := "obs_test_registry_" + strconv.FormatInt(publishRuns.Add(1), 10)
	if !r.PublishExpvar(name) {
		t.Fatal("first publish should succeed")
	}
	if r.PublishExpvar(name) {
		t.Error("second publish should be a no-op")
	}
}

// TestConcurrentRecording exercises the record path from many goroutines;
// meaningful under -race.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	h := r.Histogram("race_hist", "", LatencyBuckets)
	ring := r.Events()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				if j%100 == 0 {
					ring.Record("race", EventDial, "x")
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", h.Count())
	}
}

// TestRegisterWhileScraping: a scrape that races registrations never sees
// a half-built instrument. One goroutine registers metrics of every kind,
// and re-registers one GaugeFunc, while this one loops over both scrapes.
// Meaningful under -race.
func TestRegisterWhileScraping(t *testing.T) {
	const n = 200
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s := strconv.Itoa(i)
			r.Counter(Label("c_total", "i", s), "").Inc()
			r.Gauge(Label("g", "i", s), "").Set(1)
			r.Histogram(Label("h", "i", s), "", LatencyBuckets).Observe(0.1)
			r.CounterFunc(Label("cf_total", "i", s), "", func() int64 { return 1 })
			r.GaugeFunc(Label("gf", "i", s), "", func() int64 { return 1 })
			r.GaugeFunc("gf_again", "", func() int64 { return int64(i) })
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if err := r.WriteMetrics(io.Discard); err != nil {
			t.Fatal(err)
		}
		_ = r.Snapshot()
	}
	snap := r.Snapshot()
	if len(snap) != 5*n+1 {
		t.Errorf("snapshot holds %d series, want %d", len(snap), 5*n+1)
	}
	if got := snap["gf_again"]; got != int64(n-1) {
		t.Errorf("re-registered GaugeFunc reads %v, want the last func's %d", got, n-1)
	}
}
