package multipath

import (
	"errors"
	"fmt"
	"io"
	"net"
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
	// wmu serializes ACK writes per subflow slot; ackBuf[i] is the slot's
	// reusable ACK frame, valid only while wmu[i] is held.
	wmu    []sync.Mutex
	ackBuf [][]byte

	mu    sync.Mutex
	cond  *sync.Cond
	conns []net.Conn
	// epoch[i] counts incarnations of subflow slot i (see Sender.epoch):
	// frames and deaths from a superseded socket are recognized as stale.
	epoch    []uint64
	alive    []bool
	reorder  map[uint64][]byte
	recvBy   []uint64 // segments received per subflow incarnation
	expected uint64   // next in-order sequence to deliver
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
	// MaxBufferedBytes; Read releases it once the application drains.
	ackHeld   bool
	ackHeldOn int
	deadN     int
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
		conns:   append([]net.Conn(nil), conns...),
		wmu:     make([]sync.Mutex, len(conns)),
		ackBuf:  make([][]byte, len(conns)),
		epoch:   make([]uint64, len(conns)),
		alive:   make([]bool, len(conns)),
		reorder: make(map[uint64][]byte),
		recvBy:  make([]uint64, len(conns)),
	}
	for i := range r.ackBuf {
		r.ackBuf[i] = make([]byte, headerSize)
	}
	r.cond = sync.NewCond(&r.mu)
	r.scope = cfg.Obs.Scope("multipath")
	r.reorderDepth = cfg.Obs.Gauge("cronets_multipath_reorder_depth",
		"Segments parked in the receiver's reassembly queue.")
	r.span = cfg.Tracer.Continue("multipath.recv", cfg.TraceCtx)
	r.span.SetDetail(strconv.Itoa(len(conns)) + " subflows")
	for i, c := range r.conns {
		r.alive[i] = true
		r.wg.Add(1)
		go r.readLoop(c, i, 0)
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
	conns := append([]net.Conn(nil), r.conns...)
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
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
	ok := !r.closed && channel == r.cfg.ChannelID && idx >= 0 && idx < len(r.conns)
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
	old := r.conns[idx]
	r.conns[idx] = conn
	r.epoch[idx]++
	epoch := r.epoch[idx]
	if !r.alive[idx] {
		r.alive[idx] = true
		r.deadN--
	}
	r.recvBy[idx] = 0
	// A rejoin can revive a channel declared dead before the application
	// observed the failure.
	if r.failed == ErrAllSubflowsDead {
		r.failed = nil
	}
	r.wg.Add(1)
	r.cond.Broadcast()
	r.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
	r.scope.Event(obs.EventSubflowRejoin,
		fmt.Sprintf("subflow %d rejoined (epoch %d)", idx, epoch))
	go r.readLoop(conn, idx, epoch)
	return nil
}

// readLoop consumes frames from one incarnation of subflow slot i.
func (r *Receiver) readLoop(conn net.Conn, i int, epoch uint64) {
	defer r.wg.Done()
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			r.subflowDied(i, epoch)
			return
		}
		// parseHeader refuses a data frame over MaxSegBytes, so the
		// payload buffer below is never fetched for an oversized claim.
		h, err := parseHeader(hdr, r.cfg.MaxSegBytes)
		if err != nil || (h.typ != frameData && h.typ != frameFin) {
			_ = conn.Close()
			r.subflowDied(i, epoch)
			return
		}
		switch h.typ {
		case frameData:
			data := pipe.Get(int(h.length))
			if _, err := io.ReadFull(conn, data); err != nil {
				pipe.Put(data)
				r.subflowDied(i, epoch)
				return
			}
			r.ingest(i, epoch, h.seq, data)
		case frameFin:
			r.mu.Lock()
			r.finSeen = true
			r.finSeq = h.seq
			r.cond.Broadcast()
			r.mu.Unlock()
			// Final ACK so the sender's Close completes promptly.
			r.sendAck(i)
		}
	}
}

// ingest stores a segment, advances the in-order point, and acks: a
// subflow-level ack immediately (it keeps the subflow's window moving) and
// a connection-level cumulative ack every ackEvery deliveries — unless the
// application has stopped reading and delivered is over the buffer cap,
// in which case the cumulative ack is withheld until Read drains.
func (r *Receiver) ingest(i int, epoch uint64, seq uint64, data []byte) {
	r.mu.Lock()
	// Data frames are valid regardless of which incarnation carried them
	// (the sender retransmits anything unacked), but per-incarnation
	// sub-ack counts from a stale socket must not reach the fresh one.
	current := r.epoch[i] == epoch
	var subCount uint64
	if current {
		r.recvBy[i]++
		subCount = r.recvBy[i]
	}
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
		r.ackHeldOn = i
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
	if current {
		r.sendSubAck(i, subCount)
	}
	if needAck {
		r.sendAck(i)
	}
}

// sendSubAck reports how many segments have arrived on subflow i, on that
// subflow.
func (r *Receiver) sendSubAck(i int, count uint64) {
	r.mu.Lock()
	conn := r.conns[i]
	r.mu.Unlock()
	_ = r.writeAck(i, conn, frameSubAck, count)
}

// sendAck emits a cumulative ACK on subflow i (falling back to any other
// subflow if that write fails).
func (r *Receiver) sendAck(i int) {
	r.mu.Lock()
	cum := r.expected
	conn := r.conns[i]
	n := len(r.conns)
	r.mu.Unlock()
	if r.writeAck(i, conn, frameAck, cum) == nil {
		return
	}
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		r.mu.Lock()
		c := r.conns[j]
		r.mu.Unlock()
		if r.writeAck(j, c, frameAck, cum) == nil {
			return
		}
	}
}

// writeAck fills subflow i's reusable ACK frame and writes it under the
// slot's write lock.
func (r *Receiver) writeAck(i int, conn net.Conn, frameType byte, value uint64) error {
	r.wmu[i].Lock()
	defer r.wmu[i].Unlock()
	ack := r.ackBuf[i]
	header{typ: frameType, seq: value}.put(ack)
	_, err := conn.Write(ack)
	return err
}

// subflowDied records a reader failure for one incarnation; stale
// incarnations (already superseded by a Join) are ignored, orderly
// teardown (Close, or FIN satisfied) is not a failure, and the stream
// fails only when every subflow is gone.
func (r *Receiver) subflowDied(i int, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch[i] != epoch || !r.alive[i] {
		return
	}
	r.alive[i] = false
	r.deadN++
	if r.closed || (r.finSeen && r.expected >= r.finSeq) {
		r.cond.Broadcast()
		return
	}
	r.scope.Event(obs.EventSubflowDown,
		"receive side, "+strconv.Itoa(len(r.conns)-r.deadN)+" alive")
	if r.deadN >= len(r.conns) && r.failed == nil {
		r.failed = ErrAllSubflowsDead
	}
	r.cond.Broadcast()
}
