package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// getJSONEvents runs the events handler and decodes the response array.
func getJSONEvents(t *testing.T, r *Registry, url string) ([]Event, *httptest.ResponseRecorder) {
	t.Helper()
	rec := httptest.NewRecorder()
	r.EventsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return nil, rec
	}
	var events []Event
	if err := json.NewDecoder(rec.Body).Decode(&events); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return events, rec
}

func TestEventsHandlerTypeFilter(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("relay")
	s.Event(EventConnect, "a")
	s.Event(EventDial, "b")
	s.Event(EventConnect, "c")

	all, _ := getJSONEvents(t, r, "/debug/events")
	if len(all) != 3 {
		t.Fatalf("unfiltered = %d events, want 3", len(all))
	}
	connects, _ := getJSONEvents(t, r, "/debug/events?type=connect")
	if len(connects) != 2 {
		t.Fatalf("?type=connect = %d events, want 2", len(connects))
	}
	for _, e := range connects {
		if e.Type != EventConnect {
			t.Errorf("filtered event has type %s", e.Type)
		}
	}
	none, _ := getJSONEvents(t, r, "/debug/events?type=flow-trace")
	if len(none) != 0 {
		t.Fatalf("?type=flow-trace = %d events, want 0", len(none))
	}
	if _, rec := getJSONEvents(t, r, "/debug/events?type=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown type status = %d, want 400", rec.Code)
	}
}

func TestEventsHandlerSinceFilter(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("relay")
	s.Event(EventConnect, "old")
	cut := time.Now()
	time.Sleep(2 * time.Millisecond)
	s.Event(EventDial, "new")

	recent, _ := getJSONEvents(t, r, "/debug/events?since="+cut.Format(time.RFC3339Nano))
	if len(recent) != 1 || recent[0].Detail != "new" {
		t.Fatalf("?since=<timestamp> = %+v, want just the new event", recent)
	}
	// A duration means "the last D".
	last, _ := getJSONEvents(t, r, "/debug/events?since=1h")
	if len(last) != 2 {
		t.Fatalf("?since=1h = %d events, want 2", len(last))
	}
	zero, _ := getJSONEvents(t, r, "/debug/events?since=0s")
	if len(zero) != 0 {
		t.Fatalf("?since=0s = %d events, want 0", len(zero))
	}
	if _, rec := getJSONEvents(t, r, "/debug/events?since=yesterday"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad since status = %d, want 400", rec.Code)
	}
}

func TestParseEventTypeCoversAll(t *testing.T) {
	if len(eventTypes) != len(wireNames) {
		t.Errorf("eventTypes lists %d types, want %d", len(eventTypes), len(wireNames))
	}
	for i, et := range eventTypes {
		got, ok := ParseEventType(string(et))
		if !ok || got != et {
			t.Errorf("ParseEventType(%q) = %v, %v; want %v", et, got, ok, et)
		}
		if i < len(wireNames) && et != wireNames[i].t {
			t.Errorf("eventTypes[%d] = %q, want %q", i, et, wireNames[i].t)
		}
	}
	if _, ok := ParseEventType("unknown"); ok {
		t.Error("ParseEventType accepted the unknown sentinel")
	}
}

func TestGETOnlyRejectsAndMarksNoStore(t *testing.T) {
	r := NewRegistry()
	r.Counter("cronets_test_total", "t").Inc()
	handlers := map[string]http.Handler{
		"metrics": r.MetricsHandler(),
		"json":    r.JSONHandler(),
		"events":  r.EventsHandler(),
	}
	for name, h := range handlers {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: GET status = %d", name, rec.Code)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", name, cc)
		}
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/", nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s: %s status = %d, want 405", name, method, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s: Allow = %q", name, allow)
			}
		}
	}
}

// expositionLines returns the text exposition's lines for one metric name
// prefix.
func expositionLines(t *testing.T, r *Registry, prefix string) []string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return out
}

func TestHistogramExpositionZeroObservations(t *testing.T) {
	r := NewRegistry()
	r.Histogram("cronets_empty_seconds", "empty", []float64{0.1, 1})
	lines := expositionLines(t, r, "cronets_empty_seconds")
	want := []string{
		`cronets_empty_seconds_bucket{le="0.1"} 0`,
		`cronets_empty_seconds_bucket{le="1"} 0`,
		`cronets_empty_seconds_bucket{le="+Inf"} 0`,
		`cronets_empty_seconds_sum 0`,
		`cronets_empty_seconds_count 0`,
	}
	if len(lines) != len(want) {
		t.Fatalf("exposition = %q, want %d lines", lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestHistogramExpositionSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cronets_one_seconds", "one bucket", []float64{0.5})
	h.Observe(0.1)
	h.Observe(0.2)
	lines := expositionLines(t, r, "cronets_one_seconds")
	want := []string{
		`cronets_one_seconds_bucket{le="0.5"} 2`,
		`cronets_one_seconds_bucket{le="+Inf"} 2`,
		`cronets_one_seconds_sum 0.30000000000000004`,
		`cronets_one_seconds_count 2`,
	}
	if len(lines) != len(want) {
		t.Fatalf("exposition = %q, want %d lines", lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestHistogramExpositionAboveTopBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cronets_top_seconds", "overflow", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(50) // beyond every finite bound: only +Inf counts it
	lines := expositionLines(t, r, "cronets_top_seconds")
	want := []string{
		`cronets_top_seconds_bucket{le="0.1"} 1`,
		`cronets_top_seconds_bucket{le="1"} 1`,
		`cronets_top_seconds_bucket{le="+Inf"} 2`,
		`cronets_top_seconds_sum 50.05`,
		`cronets_top_seconds_count 2`,
	}
	if len(lines) != len(want) {
		t.Fatalf("exposition = %q, want %d lines", lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestStartRuntime(t *testing.T) {
	if stop := StartRuntime(nil); stop == nil {
		t.Fatal("nil registry returned nil stop")
	} else {
		stop()
	}

	r := NewRegistry()
	runtime.GC() // ensure at least one pause is in the MemStats ring
	stop := StartRuntime(r)
	defer stop()
	snap := r.Snapshot()
	if g, ok := snap["cronets_runtime_goroutines"].(int64); !ok || g < 1 {
		t.Errorf("goroutines = %v", snap["cronets_runtime_goroutines"])
	}
	if g, ok := snap["cronets_runtime_gomaxprocs"].(int64); !ok || g < 1 {
		t.Errorf("gomaxprocs = %v", snap["cronets_runtime_gomaxprocs"])
	}
	if h, ok := snap["cronets_runtime_heap_bytes"].(int64); !ok || h <= 0 {
		t.Errorf("heap_bytes = %v", snap["cronets_runtime_heap_bytes"])
	}
	if hs, ok := snap["cronets_runtime_gc_pause_seconds"].(HistogramSnapshot); !ok || hs.Count < 1 {
		t.Errorf("gc_pause_seconds = %+v", snap["cronets_runtime_gc_pause_seconds"])
	}
	stop()
	stop() // stop is safe to call twice
}
