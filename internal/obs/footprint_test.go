package obs

import (
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"testing"
)

// liveHeap returns the heap bytes still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestEventRingFootprint: a registry's ring, filled with events that
// share one detail string, retains at most 40 KB. Every registry holds a
// full-capacity ring for its whole life, so its slots are live heap that
// the collector scans on every cycle.
func TestEventRingFootprint(t *testing.T) {
	const rings, maxPerRing = 64, 40 << 10
	detail := "pooled leg to 127.0.0.1:9000 died, cold dialing"
	before := liveHeap()
	regs := make([]*Registry, rings)
	for i := range regs {
		regs[i] = NewRegistry()
		s := regs[i].Scope("gateway")
		for j := 0; j < DefaultEventCapacity; j++ {
			s.Event(EventDial, detail)
		}
	}
	perRing := (int64(liveHeap()) - int64(before)) / rings
	runtime.KeepAlive(regs)
	if perRing > maxPerRing {
		t.Fatalf("a registry with a full %d-event ring retains %d B, want at most %d B",
			DefaultEventCapacity, perRing, maxPerRing)
	}
	t.Logf("%d B retained per registry with a full ring", perRing)
}

// TestScopeEventAllocs: with debug logging off (the default logger),
// recording an event allocates nothing. A disabled Debug call would
// still box its arguments.
func TestScopeEventAllocs(t *testing.T) {
	s := NewRegistry().Scope("relay")
	detail := fmt.Sprintf("ok via %s", "127.0.0.1:9000")
	allocs := testing.AllocsPerRun(1000, func() { s.Event(EventDial, detail) })
	if allocs != 0 {
		t.Fatalf("Scope.Event allocates %v times per event, want 0", allocs)
	}
}

// TestScopeEventLogsAtDebug: with debug logging on, each event is one
// debug line tagged with its component, type and detail.
func TestScopeEventLogsAtDebug(t *testing.T) {
	var out strings.Builder
	h := slog.NewTextHandler(&out, &slog.HandlerOptions{
		Level: slog.LevelDebug,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	s := &Scope{component: "relay", ring: NewEventRing(4), log: slog.New(h).With("component", "relay")}
	s.Event(EventDial, "ok 127.0.0.1:1")
	want := `level=DEBUG msg="flow event" component=relay type=dial detail="ok 127.0.0.1:1"` + "\n"
	if out.String() != want {
		t.Fatalf("debug log = %q, want %q", out.String(), want)
	}
	if got := s.ring.Snapshot(); len(got) != 1 || got[0].Detail != "ok 127.0.0.1:1" {
		t.Errorf("ring = %+v, want the one event", got)
	}
}

// TestEventRingKeepsEveryName: a ring that sees more distinct component
// and type names than its one-byte name indexes can address still
// returns every buffered event exactly, and keeps no names for the
// events it has overwritten.
func TestEventRingKeepsEveryName(t *testing.T) {
	ring := NewEventRing(8)
	const n = 600
	for i := 0; i < n; i++ {
		ring.Record(fmt.Sprintf("c%d", i), EventType(fmt.Sprintf("t%d", i%300)), fmt.Sprint(i))
	}
	events := ring.Snapshot()
	if len(events) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(events))
	}
	for k, e := range events {
		i := n - 8 + k
		if e.Component != fmt.Sprintf("c%d", i) || e.Type != EventType(fmt.Sprintf("t%d", i%300)) ||
			e.Detail != fmt.Sprint(i) {
			t.Errorf("event %d = %+v, want component c%d, type t%d, detail %d", k, e, i, i%300, i)
		}
	}
	// Names the table holds overwrite every spilled slot.
	for k := 0; k < 8; k++ {
		ring.Record("c0", "t0", "again")
	}
	for k, e := range ring.Snapshot() {
		if e.Component != "c0" || e.Type != "t0" || e.Detail != "again" {
			t.Errorf("rewritten event %d = %+v, want component c0, type t0", k, e)
		}
	}
	if len(ring.spill) != 0 {
		t.Errorf("ring keeps spilled names for %d overwritten slots, want none", len(ring.spill))
	}
}
