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
// share one detail string, retains at most 40 KB. A busy registry fills
// its ring and then holds every slot for the rest of its life, so they
// are live heap that the collector scans on every cycle.
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

// TestQuietRegistryFootprint: a registry that has recorded 16 events,
// sharing one detail string, retains at most 1 KiB. Its ring allocates
// slots as events arrive, so a quiet registry does not pay for the full
// ring a busy one fills.
func TestQuietRegistryFootprint(t *testing.T) {
	const regsN, events, maxPerReg = 64, 16, 1 << 10
	detail := "pooled leg to 127.0.0.1:9000 died, cold dialing"
	before := liveHeap()
	regs := make([]*Registry, regsN)
	for i := range regs {
		regs[i] = NewRegistry()
		s := regs[i].Scope("gateway")
		for j := 0; j < events; j++ {
			s.Event(EventDial, detail)
		}
	}
	perReg := (int64(liveHeap()) - int64(before)) / regsN
	runtime.KeepAlive(regs)
	if perReg > maxPerReg {
		t.Fatalf("a registry that recorded %d events retains %d B, want at most %d B",
			events, perReg, maxPerReg)
	}
	t.Logf("%d B retained per registry after %d events", perReg, events)
}

// TestEventRingGrowsWithUse: a ring holds at most max(16, 2k) slots after
// k events, reaches its 1,024 capacity in at most 7 slot allocations, and
// once full records without allocating at all.
func TestEventRingGrowsWithUse(t *testing.T) {
	ring := NewEventRing(DefaultEventCapacity)
	if cap(ring.buf) != 0 {
		t.Fatalf("a new ring holds %d slots, want 0", cap(ring.buf))
	}
	grows := 0
	for k := 1; k <= DefaultEventCapacity; k++ {
		held := cap(ring.buf)
		ring.Record("gateway", EventDial, "ok")
		if cap(ring.buf) != held {
			grows++
		}
		if c := cap(ring.buf); c > max(minSlots, 2*k) {
			t.Fatalf("after %d events the ring holds %d slots, want at most %d", k, c, max(minSlots, 2*k))
		}
	}
	if cap(ring.buf) != DefaultEventCapacity || grows > 7 {
		t.Fatalf("a full ring holds %d slots after %d allocations, want %d slots in at most 7",
			cap(ring.buf), grows, DefaultEventCapacity)
	}
	if allocs := testing.AllocsPerRun(4*DefaultEventCapacity, func() {
		ring.Record("gateway", EventDial, "ok")
	}); allocs != 0 {
		t.Fatalf("Record on a full ring allocates %v times per event, want 0", allocs)
	}
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
// events it has overwritten. The 1,024-slot ring starts spilling names
// while it is still growing, so growth must keep each spilled slot's
// names.
func TestEventRingKeepsEveryName(t *testing.T) {
	for _, size := range []int{8, DefaultEventCapacity} {
		ring := NewEventRing(size)
		const n = 600
		spilledWhileGrowing := false
		for i := 0; i < n; i++ {
			ring.Record(fmt.Sprintf("c%d", i), EventType(fmt.Sprintf("t%d", i%300)), fmt.Sprint(i))
			spilledWhileGrowing = spilledWhileGrowing || len(ring.spill) > 0 && cap(ring.buf) < size
		}
		if size == DefaultEventCapacity && !spilledWhileGrowing {
			t.Errorf("%d-slot ring: no name spilled before the ring stopped growing", size)
		}
		events := ring.Snapshot()
		kept := min(n, size)
		if len(events) != kept {
			t.Fatalf("%d-slot ring: snapshot len = %d, want %d", size, len(events), kept)
		}
		for k, e := range events {
			i := n - kept + k
			if e.Component != fmt.Sprintf("c%d", i) || e.Type != EventType(fmt.Sprintf("t%d", i%300)) ||
				e.Detail != fmt.Sprint(i) {
				t.Errorf("%d-slot ring: event %d = %+v, want component c%d, type t%d, detail %d",
					size, k, e, i, i%300, i)
			}
		}
		// Names the table holds overwrite every spilled slot.
		for k := 0; k < size; k++ {
			ring.Record("c0", "t0", "again")
		}
		for k, e := range ring.Snapshot() {
			if e.Component != "c0" || e.Type != "t0" || e.Detail != "again" {
				t.Errorf("%d-slot ring: rewritten event %d = %+v, want component c0, type t0", size, k, e)
			}
		}
		if len(ring.spill) != 0 {
			t.Errorf("%d-slot ring keeps spilled names for %d overwritten slots, want none", size, len(ring.spill))
		}
	}
}
