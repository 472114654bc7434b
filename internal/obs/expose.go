package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WriteMetrics writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name. Labeled series
// (created via Label) are grouped under their base name's HELP/TYPE
// header. Histograms emit cumulative _bucket{le=...} series plus _sum and
// _count.
func (r *Registry) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	entries := r.copyEntries()
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)

	lastHeader := ""
	for _, name := range names {
		e := entries[name]
		base := baseName(name)
		if base != lastHeader {
			lastHeader = base
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.kind.promType()); err != nil {
				return err
			}
		}
		if err := writeEntry(w, name, e); err != nil {
			return err
		}
	}
	return nil
}

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// baseName strips a trailing {label} block.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func writeEntry(w io.Writer, name string, e entry) error {
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", name, e.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", name, e.g.Value())
		return err
	case kindCounterFunc, kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %d\n", name, e.fn())
		return err
	case kindHistogram:
		h := e.h
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
				name, strconv.FormatFloat(bound, 'g', -1, 64), cum); err != nil {
				return err
			}
		}
		count := h.Count()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n",
			name, strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", name, count)
		return err
	}
	return nil
}

// HistogramSnapshot is a histogram's JSON form.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"` // upper bound -> cumulative count
}

// Snapshot returns all metric values as a JSON-encodable map: counters and
// gauges as int64, histograms as HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	for name, e := range r.copyEntries() {
		switch e.kind {
		case kindCounter:
			out[name] = e.c.Value()
		case kindGauge:
			out[name] = e.g.Value()
		case kindCounterFunc, kindGaugeFunc:
			out[name] = e.fn()
		case kindHistogram:
			h := e.h
			hs := HistogramSnapshot{
				Count:   h.Count(),
				Sum:     h.Sum(),
				Buckets: make(map[string]int64, len(h.bounds)+1),
			}
			var cum int64
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				hs.Buckets[strconv.FormatFloat(bound, 'g', -1, 64)] = cum
			}
			hs.Buckets["+Inf"] = h.Count()
			out[name] = hs
		}
	}
	return out
}

// copyEntries copies every entry by value under r.mu. Scrapes call the
// copies' funcs outside the lock, so a func may take a component lock
// under which that component registers metrics.
func (r *Registry) copyEntries() map[string]entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]entry, len(r.entries))
	for name, e := range r.entries {
		out[name] = e
	}
	return out
}

// GETOnly wraps an observability handler so that non-GET/HEAD methods
// get 405 and every response carries Cache-Control: no-store — debug and
// metrics surfaces are live views that must never be cached or written
// to.
func GETOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Cache-Control", "no-store")
		h.ServeHTTP(w, req)
	})
}

// MetricsHandler serves the Prometheus text exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return GETOnly(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	}))
}

// JSONHandler serves the metric snapshot as a JSON object.
func (r *Registry) JSONHandler() http.Handler {
	return GETOnly(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	}))
}

// EventsHandler serves the flow-event ring as a JSON array, oldest
// first. Query parameters: ?type=<event name> keeps one event type
// (unknown names are 400), and ?since= keeps events after a bound given
// either as an RFC 3339 timestamp or as a Go duration meaning "the last
// D" — so a single path switch can be tailed without client-side
// filtering.
func (r *Registry) EventsHandler() http.Handler {
	return GETOnly(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var wantType EventType
		if name := q.Get("type"); name != "" {
			t, ok := ParseEventType(name)
			if !ok {
				http.Error(w, "unknown event type "+strconv.Quote(name), http.StatusBadRequest)
				return
			}
			wantType = t
		}
		var since time.Time
		if v := q.Get("since"); v != "" {
			if ts, err := time.Parse(time.RFC3339Nano, v); err == nil {
				since = ts
			} else if d, derr := time.ParseDuration(v); derr == nil && d >= 0 {
				since = time.Now().Add(-d)
			} else {
				http.Error(w, "bad since: want RFC 3339 timestamp or duration", http.StatusBadRequest)
				return
			}
		}
		events := r.Events().Snapshot()
		filtered := make([]Event, 0, len(events))
		for _, e := range events {
			if wantType != "" && e.Type != wantType {
				continue
			}
			if !since.IsZero() && !e.Time.After(since) {
				continue
			}
			filtered = append(filtered, e)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(filtered)
	}))
}

// expvarMu guards against double-publishing (expvar.Publish panics on a
// duplicate name, e.g. across tests).
var expvarMu sync.Mutex

// PublishExpvar exposes the registry's snapshot as a single expvar
// variable, making it visible on /debug/vars alongside the runtime's
// memstats. If the name is already published (by this or an earlier
// registry) the existing binding is kept and false is returned.
func (r *Registry) PublishExpvar(name string) bool {
	if r == nil {
		return false
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}
