package obs

import (
	"context"
	"log/slog"
	"math"
	"sync"
	"time"
)

// EventType classifies flow events across the overlay stack. Its value
// is the type's wire name, as /debug/events serves it.
type EventType string

// Flow-event types.
const (
	// EventConnect is a CONNECT handshake accepted by a split proxy.
	EventConnect EventType = "connect"
	// EventDial is an upstream dial attempt (detail carries the outcome).
	EventDial EventType = "dial"
	// EventSubflowUp is a multipath subflow entering service.
	EventSubflowUp EventType = "subflow-up"
	// EventSubflowDown is a multipath subflow death / failover.
	EventSubflowDown EventType = "subflow-down"
	// EventRetransmit is a batch of segments requeued onto surviving
	// subflows.
	EventRetransmit EventType = "retransmit"
	// EventACLReject is a CONNECT target refused by the relay ACL.
	EventACLReject EventType = "acl-reject"
	// EventIdleClose is a connection reaped by the idle timeout.
	EventIdleClose EventType = "idle-close"
	// EventFaultInjected is a netem fault firing (kill, blackhole, or
	// refused connect).
	EventFaultInjected EventType = "fault-injected"
	// EventSubflowRejoin is a reconnected subflow rejoining its multipath
	// channel via the JOIN handshake.
	EventSubflowRejoin EventType = "subflow-rejoin"
	// EventDialRetry is a transient upstream dial failure being retried
	// with backoff.
	EventDialRetry EventType = "dial-retry"
	// EventProbe is a pathmon probe outcome (detail carries path + result).
	EventProbe EventType = "probe"
	// EventRankChange is the pathmon ranked table's leader changing
	// (before hysteresis commits a switch).
	EventRankChange EventType = "rank-change"
	// EventPathSwitch is pathmon committing traffic to a new best path.
	EventPathSwitch EventType = "path-switch"
	// EventFallback is a gateway dial falling back to the next-ranked path
	// after the preferred one failed.
	EventFallback EventType = "fallback"
	// EventImpairmentChange is a netem proxy's shaping being swapped at
	// runtime (SetImpairment).
	EventImpairmentChange EventType = "impairment-change"
	// EventFlowTrace is a sampled flow's trace completing (root span
	// ended); detail carries the trace ID, duration, and byte count.
	EventFlowTrace EventType = "flow-trace"
	// EventPoolWarm is a connection pool warming a relay leg (detail
	// carries the relay and outcome).
	EventPoolWarm EventType = "pool-warm"
	// EventPoolDrain is a connection pool retiring idle legs (TTL
	// expiry, failed liveness check, or a demoted relay draining).
	EventPoolDrain EventType = "pool-drain"
	// EventChainCandidates is pathmon's two-hop chain candidate set
	// changing (detail carries counts: enumerated, from, pruned).
	EventChainCandidates EventType = "chain-candidates"
	// EventChainDial is a gateway dial riding a multi-hop chain (detail
	// carries the hop list).
	EventChainDial EventType = "chain-dial"
	// EventBurst is a pathmon throughput-burst outcome (detail carries
	// the route and the Mbps result or failure cause).
	EventBurst EventType = "burst"
)

// eventTypes lists every EventType.
var eventTypes = []EventType{
	EventConnect, EventDial, EventSubflowUp, EventSubflowDown,
	EventRetransmit, EventACLReject, EventIdleClose, EventFaultInjected,
	EventSubflowRejoin, EventDialRetry, EventProbe, EventRankChange,
	EventPathSwitch, EventFallback, EventImpairmentChange, EventFlowTrace,
	EventPoolWarm, EventPoolDrain, EventChainCandidates, EventChainDial,
	EventBurst,
}

// ParseEventType resolves a wire name to its EventType (for the
// /debug/events ?type= filter). ok is false for unknown names.
func ParseEventType(name string) (EventType, bool) {
	for _, t := range eventTypes {
		if string(t) == name {
			return t, true
		}
	}
	return "", false
}

// Event is one entry in the flow-event ring, as Snapshot returns it.
type Event struct {
	Time      time.Time `json:"time"`
	Component string    `json:"component"`
	Type      EventType `json:"type"`
	Detail    string    `json:"detail,omitempty"`
}

// DefaultEventCapacity is the ring size used by NewRegistry.
const DefaultEventCapacity = 1024

// EventRing is a bounded ring buffer of flow events. Recording is cheap
// (one mutexed slot write); once full, the ring overwrites oldest-first.
// A nil *EventRing is a valid no-op sink.
//
// The ring allocates its slots as events arrive: minSlots on the first
// Record, then double whenever they fill, up to the capacity. A ring that
// has recorded k events holds at most max(minSlots, 2k) slots, so a
// registry that sees few events (a standby relay, a gateway carrying
// long-lived flows) stays small; a full ring holds exactly its capacity
// and records without allocating. Each event is a 32 B slot with one
// pointer, not an Event (72 B, four pointers): a busy registry holds a
// full ring for the rest of its life, and the garbage collector scans it
// on every cycle.
type EventRing struct {
	mu  sync.Mutex
	buf []slot
	// capacity bounds len(buf); the ring is full when they are equal.
	capacity int
	next     int
	total    uint64
	// names holds every component and type name the ring has recorded,
	// in first-seen order; slots index it.
	names []string
	// spill holds the component and type of each slot whose names did
	// not fit in names (index spilled), keyed by slot position.
	spill map[int]Event
}

// slot is one stored event: the time in Unix nanoseconds, the detail,
// and the indexes in EventRing.names of its component and type name.
type slot struct {
	at        int64
	detail    string
	comp, typ uint8
}

// spilled is the name index of a slot whose names are in EventRing.spill,
// so that a ring keeps every event exact however many distinct names
// reach it.
const spilled = math.MaxUint8

// minSlots is the number of slots a ring allocates on its first Record.
const minSlots = 16

// NewEventRing creates a ring holding up to capacity events (minimum 1).
// It allocates no slots until the first Record.
func NewEventRing(capacity int) *EventRing {
	return &EventRing{capacity: max(capacity, 1)}
}

// Record appends an event, overwriting the oldest once full. No-op on nil.
func (r *EventRing) Record(component string, t EventType, detail string) {
	if r == nil {
		return
	}
	at := time.Now().UnixNano()
	r.mu.Lock()
	i := r.next
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = r.buf[:i+1]
	} else if r.spill != nil {
		delete(r.spill, i)
	}
	s := slot{at: at, detail: detail, comp: r.nameIndex(component), typ: r.nameIndex(string(t))}
	if s.comp == spilled || s.typ == spilled {
		if r.spill == nil {
			r.spill = make(map[int]Event)
		}
		r.spill[i] = Event{Component: component, Type: t}
	}
	r.buf[i] = s
	r.next = (i + 1) % r.capacity
	r.total++
	r.mu.Unlock()
}

// grow doubles the ring's slots, from minSlots up to its capacity. Slots
// keep their positions, and so their spilled names. Caller holds r.mu.
func (r *EventRing) grow() {
	buf := make([]slot, len(r.buf), min(max(2*cap(r.buf), minSlots), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
}

// nameIndex returns name's index in r.names, adding it on first sight,
// or spilled when the table is full. Caller holds r.mu.
func (r *EventRing) nameIndex(name string) uint8 {
	for i, n := range r.names {
		if n == name {
			return uint8(i)
		}
	}
	if len(r.names) == spilled {
		return spilled
	}
	r.names = append(r.names, name)
	return uint8(len(r.names) - 1)
}

// Snapshot returns the buffered events, oldest first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	start := 0
	if len(r.buf) == r.capacity {
		start = r.next
	}
	for k := range r.buf {
		i := (start + k) % len(r.buf)
		s := r.buf[i]
		e := Event{Time: time.Unix(0, s.at), Detail: s.detail}
		if n, ok := r.spill[i]; ok {
			e.Component, e.Type = n.Component, n.Type
		} else {
			e.Component, e.Type = r.names[s.comp], EventType(r.names[s.typ])
		}
		out = append(out, e)
	}
	return out
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Scope is a per-component handle combining the event ring with a slog
// logger carrying the component attribute. A nil *Scope is a valid no-op.
type Scope struct {
	component string
	ring      *EventRing
	log       *slog.Logger
}

// Scope returns a scoped event recorder + logger for a component. Returns
// nil (a no-op scope) on a nil registry.
func (r *Registry) Scope(component string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{
		component: component,
		ring:      r.events,
		log:       slog.Default().With("component", component),
	}
}

// Event records a flow event in the ring and emits it at debug level.
func (s *Scope) Event(t EventType, detail string) {
	if s == nil {
		return
	}
	s.ring.Record(s.component, t, detail)
	// Checked first: a disabled Debug call still boxes its arguments.
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("flow event", "type", string(t), "detail", detail)
	}
}

// Logger returns the scope's component-tagged logger. On a nil scope it
// returns a logger that discards everything, so callers can log
// unconditionally.
func (s *Scope) Logger() *slog.Logger {
	if s == nil {
		return discardLogger
	}
	return s.log
}

var discardLogger = slog.New(discardHandler{})

// discardHandler drops every record (slog.DiscardHandler needs go1.24;
// go.mod pins 1.23).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
