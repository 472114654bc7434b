package main

import (
	"sort"
	"time"
)

// spanLog records benchmark-side spans around the calls the benchmark
// makes into the program: a name, start and end, the enclosing span, and
// the op the span belongs to. Spans stay in memory and are written out
// when the run ends. Only the client goroutine records, so no locking.
// A nil *spanLog records nothing.
type spanLog struct {
	t0      time.Time
	spans   []span
	open    []int // stack of unfinished span indexes
	dropped int
}

type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the log's memory (about 64 bytes a span).
const maxSpans = 1 << 20

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one. Every begin must be
// matched by end, including on error paths.
func (l *spanLog) begin(op int, name string) {
	if l == nil {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		l.open = append(l.open, -1)
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(l.t0))})
	l.open = append(l.open, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *spanLog) end() {
	if l == nil || len(l.open) == 0 {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.t0))
	}
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// DurUS and SelfUS are medians in µs. A span's self time is its
	// duration minus the time its child spans cover.
	DurUS  float64 `json:"dur_us_p50"`
	SelfUS float64 `json:"self_us_p50"`
}

// summary groups the spans by name.
func (l *spanLog) summary() []spanStat {
	if l == nil {
		return nil
	}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range l.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	out := make([]spanStat, 0, len(durs))
	for name, d := range durs {
		out = append(out, spanStat{Name: name, N: len(d), DurUS: median(d), SelfUS: median(selfs[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sample returns up to perName ops of every top-level span name, evenly
// spaced, each with all its descendants, parents re-indexed. A span's
// descendants follow it in the log, before the next top-level span,
// because one goroutine records them in order.
func (l *spanLog) sample(perName int) []span {
	if l == nil {
		return nil
	}
	roots := map[string]int{}
	for _, s := range l.spans {
		if s.Parent < 0 {
			roots[s.Name]++
		}
	}
	seen := map[string]int{}
	newIdx := make([]int, len(l.spans))
	var out []span
	keep := false
	for i, s := range l.spans {
		if s.Parent < 0 {
			stride := (roots[s.Name] + perName - 1) / perName
			keep = seen[s.Name]%stride == 0
			seen[s.Name]++
		}
		newIdx[i] = -1
		if !keep {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = newIdx[s.Parent]
		}
		newIdx[i] = len(out)
		out = append(out, s)
	}
	return out
}

// medianUS is the median duration in µs of the spans named name, or 0
// when there are none.
func (l *spanLog) medianUS(name string) float64 {
	for _, s := range l.summary() {
		if s.Name == name {
			return s.DurUS
		}
	}
	return 0
}
