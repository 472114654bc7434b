package multipath

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Receiver reassembles a multipath stream. It implements io.Reader; Read
// returns io.EOF after the FIN's sequence is fully delivered. Join
// accepts a reconnected subflow's socket back into the channel.
type Receiver struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	subs     []*subflow // each slot's current incarnation
	reorder  map[uint64][]byte
	expected uint64 // next in-order sequence to deliver
	// delivered is the in-order queue of pooled segments awaiting Read;
	// deliveredOff is Read's offset into delivered[0], deliveredBytes the
	// queue's total unread payload. Segments return to the buffer pool as
	// Read consumes them.
	delivered      [][]byte
	deliveredOff   int
	deliveredBytes int
	finSeq         uint64
	finSeen        bool
	sinceAck       int
	// ackHeld marks a cumulative ACK withheld because delivered exceeded
	// MaxBufferedBytes; Read releases it on ackHeldOn once the
	// application drains.
	ackHeld   bool
	ackHeldOn *subflow
	failed    error
	closed    bool
	wg        sync.WaitGroup

	reorderDepth *obs.Gauge
	scope        *obs.Scope
	span         *flowtrace.Span // "multipath.recv", nil when untraced
}

// NewReceiver builds the receiving side over the subflow connections and
// starts its per-subflow readers.
func NewReceiver(conns []net.Conn, cfg Config) (*Receiver, error) {
	if len(conns) == 0 {
		return nil, errors.New("multipath: need at least one subflow")
	}
	cfg.applyDefaults()
	r := &Receiver{
		cfg:     cfg,
		subs:    make([]*subflow, len(conns)),
		reorder: make(map[uint64][]byte),
	}
	for i, c := range conns {
		r.subs[i] = &subflow{slot: i, conn: c}
	}
	r.cond = sync.NewCond(&r.mu)
	r.scope = cfg.Obs.Scope("multipath")
	r.reorderDepth = cfg.Obs.Gauge("cronets_multipath_reorder_depth",
		"Segments parked in the receiver's reassembly queue.")
	r.span = cfg.Tracer.Continue("multipath.recv", cfg.TraceCtx)
	r.span.SetDetail(strconv.Itoa(len(conns)) + " subflows")
	for _, sf := range r.subs {
		r.wg.Add(1)
		go r.readLoop(sf)
	}
	return r, nil
}

// Read returns reassembled, in-order bytes. Draining below the buffer cap
// releases any withheld cumulative ACK so the sender's window reopens.
func (r *Receiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	for r.deliveredBytes == 0 {
		if r.finSeen && r.expected >= r.finSeq {
			r.mu.Unlock()
			return 0, io.EOF
		}
		if r.failed != nil {
			err := r.failed
			r.mu.Unlock()
			return 0, err
		}
		if r.closed {
			r.mu.Unlock()
			return 0, net.ErrClosed
		}
		r.cond.Wait()
	}
	n := 0
	for n < len(p) && len(r.delivered) > 0 {
		head := r.delivered[0]
		c := copy(p[n:], head[r.deliveredOff:])
		n += c
		r.deliveredOff += c
		if r.deliveredOff == len(head) {
			// Fully consumed: the segment goes back to the buffer pool.
			pipe.Put(head)
			r.delivered[0] = nil
			r.delivered = r.delivered[1:]
			r.deliveredOff = 0
		}
	}
	r.deliveredBytes -= n
	release := r.ackHeld && r.deliveredBytes <= r.cfg.MaxBufferedBytes
	ackOn := r.ackHeldOn
	if release {
		r.ackHeld = false
		r.sinceAck = 0
	}
	r.mu.Unlock()
	if release {
		r.sendAck(ackOn)
	}
	return n, nil
}

// Buffered returns how many reassembled bytes await Read.
func (r *Receiver) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deliveredBytes
}

// Close tears the receiver down.
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	subs := slices.Clone(r.subs)
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, sf := range subs {
		_ = sf.conn.Close()
	}
	r.wg.Wait()
	// All readLoops are done; return parked and undelivered segments to
	// the buffer pool.
	r.mu.Lock()
	for seq, d := range r.reorder {
		delete(r.reorder, seq)
		pipe.Put(d)
	}
	for _, d := range r.delivered {
		pipe.Put(d)
	}
	r.delivered = nil
	r.deliveredOff = 0
	r.deliveredBytes = 0
	r.mu.Unlock()
	r.span.End()
	return nil
}

// Join accepts a reconnected subflow socket: it reads the JOIN frame,
// validates the channel ID and subflow index, echoes the frame to accept,
// and puts the socket into service as the slot's next incarnation. The
// connection is closed on any error.
func (r *Receiver) Join(conn net.Conn) error {
	hdr := make([]byte, headerSize)
	_ = conn.SetDeadline(time.Now().Add(joinTimeout))
	if _, err := io.ReadFull(conn, hdr); err != nil {
		_ = conn.Close()
		return fmt.Errorf("multipath: read join: %w", err)
	}
	h, err := parseHeader(hdr, r.cfg.MaxSegBytes)
	if err == nil && h.typ != frameJoin {
		err = fmt.Errorf("multipath: expected JOIN, got frame type %d", h.typ)
	}
	if err != nil {
		_ = conn.Close()
		return err
	}
	channel, idx := h.seq, int(h.length)
	r.mu.Lock()
	ok := !r.closed && channel == r.cfg.ChannelID && idx >= 0 && idx < len(r.subs)
	r.mu.Unlock()
	if !ok {
		_ = conn.Close()
		return fmt.Errorf("%w: channel %d subflow %d", ErrJoinRejected, channel, idx)
	}
	if _, err := conn.Write(hdr); err != nil {
		_ = conn.Close()
		return fmt.Errorf("multipath: write join ack: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close()
		return net.ErrClosed
	}
	// The superseded incarnation is dead: its loop's exit is no death.
	old := r.subs[idx]
	old.dead = true
	sf := &subflow{slot: idx, conn: conn}
	r.subs[idx] = sf
	// A rejoin can revive a channel declared dead before the application
	// observed the failure.
	if r.failed == ErrAllSubflowsDead {
		r.failed = nil
	}
	r.wg.Add(1)
	r.cond.Broadcast()
	r.mu.Unlock()
	_ = old.conn.Close()
	r.scope.Event(obs.EventSubflowRejoin, "subflow "+strconv.Itoa(idx)+" rejoined")
	go r.readLoop(sf)
	return nil
}

// readLoop consumes frames from one incarnation of a subflow slot.
func (r *Receiver) readLoop(sf *subflow) {
	defer r.wg.Done()
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(sf.conn, hdr); err != nil {
			r.subflowDied(sf)
			return
		}
		// parseHeader refuses a data frame over MaxSegBytes, so the
		// payload buffer below is never fetched for an oversized claim.
		h, err := parseHeader(hdr, r.cfg.MaxSegBytes)
		if err != nil || (h.typ != frameData && h.typ != frameFin) {
			_ = sf.conn.Close()
			r.subflowDied(sf)
			return
		}
		switch h.typ {
		case frameData:
			data := pipe.Get(int(h.length))
			if _, err := io.ReadFull(sf.conn, data); err != nil {
				pipe.Put(data)
				r.subflowDied(sf)
				return
			}
			r.ingest(sf, h.seq, data)
		case frameFin:
			r.mu.Lock()
			r.finSeen = true
			r.finSeq = h.seq
			r.cond.Broadcast()
			r.mu.Unlock()
			// Final ACK so the sender's Close completes promptly.
			r.sendAck(sf)
		}
	}
}

// ingest stores a segment that arrived on sf, advances the in-order
// point, and acks on sf: a subflow-level ack immediately (it keeps the
// subflow's window moving) and a connection-level cumulative ack every
// ackEvery deliveries — unless the application has stopped reading and
// delivered is over the buffer cap, in which case the cumulative ack is
// withheld until Read drains. A frame from a superseded incarnation is
// still ingested (the reorder buffer dedups it); its sub-ack reports
// sf's own count on sf's own socket, never on a successor's.
func (r *Receiver) ingest(sf *subflow, seq uint64, data []byte) {
	r.mu.Lock()
	sf.segs++
	subCount := sf.segs
	if seq >= r.expected {
		if _, dup := r.reorder[seq]; !dup {
			r.reorder[seq] = data
		} else {
			pipe.Put(data) // duplicate retransmit: drop and recycle
		}
	} else {
		pipe.Put(data) // already delivered: drop and recycle
	}
	advanced := false
	for {
		d, ok := r.reorder[r.expected]
		if !ok {
			break
		}
		delete(r.reorder, r.expected)
		// The pooled segment moves to the delivered queue as-is (no byte
		// copy); Read recycles it once consumed.
		r.delivered = append(r.delivered, d)
		r.deliveredBytes += len(d)
		r.span.MarkFirstByte()
		r.span.AddBytes(int64(len(d)))
		r.expected++
		r.sinceAck++
		advanced = true
	}
	// Ack on cadence, and additionally whenever the reorder buffer drains
	// completely — the tail of a transfer would otherwise never be
	// cumulatively acknowledged and the sender's Close would hang.
	needAck := r.sinceAck >= ackEvery || (advanced && len(r.reorder) == 0)
	if needAck && r.deliveredBytes > r.cfg.MaxBufferedBytes {
		r.ackHeld = true
		r.ackHeldOn = sf
		needAck = false
	}
	if needAck {
		r.sinceAck = 0
	}
	if advanced {
		r.cond.Broadcast()
	}
	r.reorderDepth.Set(int64(len(r.reorder)))
	r.mu.Unlock()
	_ = sf.write(header{typ: frameSubAck, seq: subCount}, nil)
	if needAck {
		r.sendAck(sf)
	}
}

// sendAck emits a cumulative ACK on sf, falling back to the other slots'
// current incarnations if that write fails.
func (r *Receiver) sendAck(sf *subflow) {
	r.mu.Lock()
	ack := header{typ: frameAck, seq: r.expected}
	r.mu.Unlock()
	if sf.write(ack, nil) == nil {
		return
	}
	for i := range r.subs {
		r.mu.Lock()
		other := r.subs[i]
		r.mu.Unlock()
		if other != sf && other.write(ack, nil) == nil {
			return
		}
	}
}

// subflowDied records a reader failure for one incarnation; superseded
// incarnations (dead since their Join) are ignored, orderly teardown
// (Close, or FIN satisfied) is not a failure, and the stream fails only
// when every subflow is gone.
func (r *Receiver) subflowDied(sf *subflow) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sf.dead {
		return
	}
	sf.dead = true
	if r.closed || (r.finSeen && r.expected >= r.finSeq) {
		r.cond.Broadcast()
		return
	}
	alive := countAlive(r.subs)
	r.scope.Event(obs.EventSubflowDown, "receive side, "+strconv.Itoa(alive)+" alive")
	if alive == 0 && r.failed == nil {
		r.failed = ErrAllSubflowsDead
	}
	r.cond.Broadcast()
}
