// Package multipath implements the stream channel behind the paper's
// MPTCP-proxy deployment model (Section VI-A): application data entering
// one proxy is striped across N subflows — one per path, e.g. the direct
// path plus one through each overlay node — with connection-level sequence
// numbers, and reassembled in order at the far proxy. Scheduling is
// pull-based: each subflow's writer takes the next segment when its socket
// can absorb it, so faster paths naturally carry more traffic, and a dead
// subflow's unacknowledged segments are retransmitted on the survivors —
// the failover property MPTCP provides transparently.
//
// Subflows are also *re-establishable*: with a SubflowDialer configured,
// the sender redials a dead subflow with exponential backoff + jitter and
// rejoins it to the channel via a JOIN handshake (channel ID + subflow
// index); the receiver accepts the late-joining socket and striping
// resumes on the recovered path.
package multipath

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Frame types.
const (
	frameData byte = 1
	// frameAck carries the connection-level cumulative in-order count
	// (frees retransmission state, gates Close).
	frameAck byte = 2
	frameFin byte = 3
	// frameSubAck carries the count of segments received on the subflow
	// it arrives on, regardless of ordering — the analog of subflow-level
	// TCP ACKs, which keep a fast subflow sending while the reassembly
	// point waits on a slow one.
	frameSubAck byte = 4
	// frameJoin is the reconnect handshake: seq carries the channel ID,
	// length the subflow index. The receiver echoes it to accept.
	frameJoin byte = 5
)

// frame header: type(1) + seq(8) + length(4).
const headerSize = 13

// header is one frame header. seq carries a data or FIN frame's sequence
// number, an ACK's count, or a JOIN's channel ID; length carries a data
// frame's payload size or a JOIN's subflow index.
type header struct {
	typ    byte
	seq    uint64
	length uint32
}

// put encodes h into b, which must hold at least headerSize bytes.
func (h header) put(b []byte) {
	b[0] = h.typ
	binary.BigEndian.PutUint64(b[1:9], h.seq)
	binary.BigEndian.PutUint32(b[9:headerSize], h.length)
}

// parseHeader decodes a frame header. It rejects a short buffer, an
// unknown type, and a data frame longer than maxSeg: the wire length is
// attacker-controlled, so it is checked here, before a reader fetches a
// buffer for the payload — a 13-byte frame claiming 4 GiB costs nothing.
func parseHeader(b []byte, maxSeg int) (header, error) {
	if len(b) < headerSize {
		return header{}, fmt.Errorf("multipath: frame header of %d bytes", len(b))
	}
	h := header{
		typ:    b[0],
		seq:    binary.BigEndian.Uint64(b[1:9]),
		length: binary.BigEndian.Uint32(b[9:headerSize]),
	}
	switch h.typ {
	case frameData:
		if int64(h.length) > int64(maxSeg) {
			return header{}, fmt.Errorf("multipath: data frame of %d bytes exceeds MaxSegBytes %d", h.length, maxSeg)
		}
	case frameAck, frameFin, frameSubAck, frameJoin:
	default:
		return header{}, fmt.Errorf("multipath: unknown frame type %d", h.typ)
	}
	return h, nil
}

// SubflowDialer re-establishes the transport connection for a dead
// subflow. It is called from the sender's reconnect loop and should bound
// its own dial time.
type SubflowDialer func(subflow int) (net.Conn, error)

// Config parameterizes a multipath channel. The zero value is usable;
// defaults are filled in.
type Config struct {
	// MaxSegBytes is the striping segment size (default 32 KiB). The
	// receiver rejects data frames longer than this, so both ends must
	// agree on it.
	MaxSegBytes int
	// MaxBufferedBytes caps the receiver's reassembled-but-unread byte
	// buffer (default 8 MiB). While over the cap the receiver withholds
	// cumulative ACKs, so the sender's window closes and a non-reading
	// application cannot force unbounded buffering; at most one more
	// window (windowSegs * MaxSegBytes) arrives past the cap.
	MaxBufferedBytes int
	// Dialer enables subflow re-establishment: when a subflow dies, the
	// sender redials it and rejoins the channel. Nil disables reconnect
	// (a dead subflow stays dead).
	Dialer SubflowDialer
	// ChannelID identifies the channel in JOIN handshakes; the receiver
	// rejects joins for any other ID. Both ends must agree on it.
	ChannelID uint64
	// Obs receives per-subflow metrics and failover events (nil disables
	// instrumentation at zero cost).
	Obs *obs.Registry
	// Tracer records flowtrace spans for the channel: the sender opens a
	// "multipath.send" span at construction (a new root when TraceCtx is
	// zero, subject to sampling), the receiver continues a "multipath.recv"
	// span under TraceCtx. Nil disables tracing at zero cost.
	Tracer *flowtrace.Tracer
	// TraceCtx parents the channel's spans under an existing flow. The
	// context travels by configuration, not on the multipath wire, so both
	// ends must be handed the same value (like ChannelID).
	TraceCtx flowtrace.Context
}

func (c *Config) applyDefaults() {
	if c.MaxSegBytes <= 0 {
		c.MaxSegBytes = 32 << 10
	}
	if c.MaxBufferedBytes <= 0 {
		c.MaxBufferedBytes = 8 << 20
	}
}

const (
	// windowSegs bounds unacknowledged segments; Write blocks when the
	// window is full.
	windowSegs = 256
	// ackEvery is how many in-order segments the receiver delivers
	// between cumulative ACKs.
	ackEvery = 4
	// subflowInflight caps unacknowledged segments per subflow. Without
	// it a slow subflow's writer pulls unbounded work into kernel
	// buffers and head-of-line blocks the reassembly window.
	subflowInflight = 8
	// closeTimeout bounds Close's wait for final ACKs.
	closeTimeout = 30 * time.Second
	// reconnectAttempts caps redial attempts per subflow death.
	reconnectAttempts = 5
	// reconnectBackoff is the delay before the first redial attempt,
	// doubling each attempt with up to 50% added jitter.
	reconnectBackoff = 25 * time.Millisecond
	// joinTimeout bounds each side of the JOIN handshake.
	joinTimeout = 5 * time.Second
)

// Errors.
var (
	// ErrAllSubflowsDead is returned when no subflow remains to carry
	// unacknowledged data (and reconnection, if enabled, gave up).
	ErrAllSubflowsDead = errors.New("multipath: all subflows dead")
	// ErrSenderClosed is returned by Write after Close.
	ErrSenderClosed = errors.New("multipath: sender closed")
	// ErrJoinRejected is returned when the far end refuses a JOIN
	// handshake (wrong channel ID or subflow index).
	ErrJoinRejected = errors.New("multipath: join rejected")
)

// segment is one striped unit awaiting acknowledgment. Its data lives in
// a pipe pool buffer and the struct itself is recycled through segPool,
// so a steady-state transfer allocates nothing per segment.
type segment struct {
	seq  uint64
	data []byte
	// sub is the subflow slot the segment was last written on, guarded
	// by Sender.mu: while the segment is in Sender.inflight, that
	// subflow's death requeues it.
	sub int
	// writers counts writeLoops currently writing this segment's bytes
	// (retransmission can overlap a late cumulative ACK); acked marks it
	// retired by an ACK; released guards the one-time return to the
	// pools. All three are guarded by Sender.mu.
	writers  int8
	acked    bool
	released bool
}

// segPool recycles segment structs across transfers.
var segPool = sync.Pool{New: func() any { return new(segment) }}

// newSegment copies p into a pooled segment.
func newSegment(p []byte) *segment {
	seg := segPool.Get().(*segment)
	seg.seq, seg.sub = 0, 0
	seg.writers, seg.acked, seg.released = 0, false, false
	seg.data = pipe.Get(len(p))
	copy(seg.data, p)
	return seg
}

// releaseSegLocked returns a retired segment's buffer and struct to their
// pools. Idempotent; a no-op while any writeLoop still holds the bytes
// (the last writer's decrement re-invokes it). Caller holds Sender.mu.
func releaseSegLocked(seg *segment) {
	if seg.released || seg.writers > 0 {
		return
	}
	seg.released = true
	pipe.Put(seg.data)
	seg.data = nil
	segPool.Put(seg)
}

// subflow is one incarnation of a subflow slot, on either end of the
// channel. A rejoin installs a fresh record in the slot, so a loop, ACK
// or death that holds a superseded record is recognized by that record,
// and its counts start at zero.
type subflow struct {
	slot int
	conn net.Conn
	// wmu keeps each frame's header and body together on conn; hdr is
	// the header being written, used only under wmu.
	wmu sync.Mutex
	hdr [headerSize]byte
	// dead and the counts are guarded by the Sender's or Receiver's mu.
	// segs counts the data frames this incarnation has carried: written
	// by the Sender, received by the Receiver. subAcked is the Sender's
	// latest sub-ack, the count the Receiver reported on this socket.
	dead     bool
	segs     uint64
	subAcked uint64
}

// write sends one frame, its header then body (nil for a bare header).
func (sf *subflow) write(h header, body []byte) error {
	sf.wmu.Lock()
	defer sf.wmu.Unlock()
	h.put(sf.hdr[:])
	_, err := sf.conn.Write(sf.hdr[:])
	if err == nil && len(body) > 0 {
		_, err = sf.conn.Write(body)
	}
	return err
}

// countAlive returns how many slots' current incarnations are alive.
// Caller holds the mu guarding subs.
func countAlive(subs []*subflow) int {
	n := 0
	for _, sf := range subs {
		if !sf.dead {
			n++
		}
	}
	return n
}

// Sender stripes a byte stream across subflows. It implements
// io.WriteCloser. Safe for one writer goroutine.
type Sender struct {
	cfg Config
	// ctx ends when Close begins teardown: it stops reconnect loops and
	// expires a JOIN handshake in flight.
	ctx    context.Context
	cancel context.CancelFunc

	// rng drives reconnect backoff jitter, seeded from the channel ID so
	// runs are reproducible.
	rngMu sync.Mutex
	rng   *rand.Rand

	mu           sync.Mutex
	cond         *sync.Cond
	subs         []*subflow // each slot's current incarnation
	nextSeq      uint64
	cumAcked     uint64              // all seq < cumAcked are acknowledged
	pending      []*segment          // not yet assigned to a subflow
	inflight     map[uint64]*segment // assigned, unacked
	reconnecting int                 // subflows with a redial loop in flight
	closed       bool
	finSent      bool
	deadErr      error
	wg           sync.WaitGroup

	bytesBy     []*obs.Counter // payload bytes written per subflow
	retransmits *obs.Counter
	rejoins     *obs.Counter
	scope       *obs.Scope
	span        *flowtrace.Span // "multipath.send", nil when untraced
}

// NewSender builds the sending side over the given subflow connections
// and starts its per-subflow workers.
func NewSender(conns []net.Conn, cfg Config) (*Sender, error) {
	if len(conns) == 0 {
		return nil, errors.New("multipath: need at least one subflow")
	}
	cfg.applyDefaults()
	s := &Sender{
		cfg:      cfg,
		subs:     make([]*subflow, len(conns)),
		rng:      rand.New(rand.NewSource(int64(cfg.ChannelID) + 1)),
		inflight: make(map[uint64]*segment),
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.scope = cfg.Obs.Scope("multipath")
	s.retransmits = cfg.Obs.Counter("cronets_multipath_retransmits_total",
		"Segments requeued onto surviving subflows after a subflow death.")
	s.rejoins = cfg.Obs.Counter("cronets_multipath_rejoins_total",
		"Dead subflows re-established via the reconnect loop.")
	s.bytesBy = make([]*obs.Counter, len(conns))
	for i, c := range conns {
		s.subs[i] = &subflow{slot: i, conn: c}
		s.bytesBy[i] = cfg.Obs.Counter(
			obs.Label("cronets_multipath_subflow_bytes_total", "subflow", strconv.Itoa(i)),
			"Payload bytes written per subflow.")
		s.scope.Event(obs.EventSubflowUp, "subflow "+strconv.Itoa(i))
	}
	s.span = cfg.Tracer.Start("multipath.send", cfg.TraceCtx)
	s.span.SetDetail(strconv.Itoa(len(conns)) + " subflows")
	for _, sf := range s.subs {
		s.start(sf)
	}
	return s, nil
}

// start runs an incarnation's worker pair.
func (s *Sender) start(sf *subflow) {
	s.wg.Add(2)
	go s.writeLoop(sf)
	go s.ackLoop(sf)
}

// Write stripes p across the subflows, blocking while the unacknowledged
// window is full. It retains no reference to p.
func (s *Sender) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > s.cfg.MaxSegBytes {
			n = s.cfg.MaxSegBytes
		}
		seg := newSegment(p[:n])
		s.mu.Lock()
		for !s.closed && s.deadErr == nil &&
			len(s.pending)+len(s.inflight) >= windowSegs {
			s.cond.Wait()
		}
		if s.closed {
			releaseSegLocked(seg)
			s.mu.Unlock()
			return written, ErrSenderClosed
		}
		if s.deadErr != nil {
			err := s.deadErr
			releaseSegLocked(seg)
			s.mu.Unlock()
			return written, err
		}
		seg.seq = s.nextSeq
		s.nextSeq++
		s.pending = append(s.pending, seg)
		s.cond.Broadcast()
		s.mu.Unlock()
		p = p[n:]
		written += n
	}
	return written, nil
}

// Close flushes remaining data, waits for all acknowledgments (bounded by
// closeTimeout), sends FIN, and closes the subflows. Once the FIN is out,
// subflow teardown is orderly: conns closing underneath the ack loops is
// no longer treated as a path failure.
func (s *Sender) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	finSeq := s.nextSeq
	s.cond.Broadcast()
	// ACKs and deaths wake the wait; one timer wakes it at the deadline.
	deadline := time.Now().Add(closeTimeout)
	timeout := time.AfterFunc(closeTimeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	for s.cumAcked < finSeq && s.deadErr == nil && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	timeout.Stop()
	err := s.deadErr
	if err == nil && s.cumAcked < finSeq {
		err = fmt.Errorf("multipath: close timed out with %d segments unacked", finSeq-s.cumAcked)
	}
	s.finSent = true
	// A dead incarnation's socket is already closed.
	var live []*subflow
	for _, sf := range s.subs {
		if !sf.dead {
			live = append(live, sf)
		}
	}
	s.mu.Unlock()
	s.cancel()

	// Send FIN on every alive subflow (receivers tolerate duplicates).
	for _, sf := range live {
		_ = sf.write(header{typ: frameFin, seq: finSeq}, nil)
	}
	for _, sf := range live {
		if tc, ok := sf.conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}
	// Give receivers a moment to drain, then close for real.
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, sf := range live {
		_ = sf.conn.Close()
	}
	s.wg.Wait()
	// All worker loops are done (writers == 0 everywhere); recycle any
	// segments the transfer never got acknowledged.
	s.mu.Lock()
	for _, seg := range s.pending {
		releaseSegLocked(seg)
	}
	s.pending = nil
	for seq, seg := range s.inflight {
		delete(s.inflight, seq)
		releaseSegLocked(seg)
	}
	s.mu.Unlock()
	s.span.End()
	return err
}

// writeLoop pulls segments and writes them on one incarnation of a
// subflow slot until the channel shuts down or the incarnation dies.
func (s *Sender) writeLoop(sf *subflow) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for (len(s.pending) == 0 || sf.segs-sf.subAcked >= subflowInflight) &&
			!s.doneLocked() && !sf.dead {
			s.cond.Wait()
		}
		if (s.doneLocked() && len(s.pending) == 0) || sf.dead {
			s.mu.Unlock()
			return
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			continue
		}
		seg := s.pending[0]
		s.pending = s.pending[1:]
		if seg.acked || seg.seq < s.cumAcked {
			// A requeued retransmit that a cumulative ACK already
			// covered: retire it instead of writing stale bytes.
			seg.acked = true
			releaseSegLocked(seg)
			s.mu.Unlock()
			continue
		}
		s.inflight[seg.seq] = seg
		seg.sub = sf.slot
		sf.segs++
		seg.writers++
		segLen := len(seg.data)
		s.mu.Unlock()

		err := sf.write(header{typ: frameData, seq: seg.seq, length: uint32(segLen)}, seg.data)
		s.mu.Lock()
		seg.writers--
		if seg.acked {
			// The ACK landed mid-write; this writer held the release.
			releaseSegLocked(seg)
		}
		s.mu.Unlock()
		if err != nil {
			s.subflowDied(sf)
			return
		}
		s.bytesBy[sf.slot].Add(int64(segLen))
		s.span.MarkFirstByte()
		s.span.AddBytes(int64(segLen))
	}
}

// doneLocked reports whether the sender has been closed and fully acked.
func (s *Sender) doneLocked() bool {
	return (s.closed && s.cumAcked >= s.nextSeq) || s.deadErr != nil || s.finSent
}

// ackLoop reads the ACKs and sub-acks arriving on one incarnation.
func (s *Sender) ackLoop(sf *subflow) {
	defer s.wg.Done()
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(sf.conn, hdr); err != nil {
			s.subflowDied(sf)
			return
		}
		h, err := parseHeader(hdr, s.cfg.MaxSegBytes)
		if err != nil || (h.typ != frameAck && h.typ != frameSubAck) {
			s.subflowDied(sf)
			return
		}
		value := h.seq
		s.mu.Lock()
		switch h.typ {
		case frameAck:
			if value > s.cumAcked {
				for seq := s.cumAcked; seq < value; seq++ {
					if seg, ok := s.inflight[seq]; ok {
						delete(s.inflight, seq)
						seg.acked = true
						releaseSegLocked(seg)
					}
				}
				s.cumAcked = value
				s.cond.Broadcast()
			}
		case frameSubAck:
			if value > sf.subAcked {
				sf.subAcked = value
				s.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// subflowDied marks an incarnation dead, requeues its unacknowledged
// segments for retransmission on the survivors, and — with a Dialer
// configured — starts the reconnect loop. After the FIN has been sent the
// channel is tearing down and conns closing is not a failure.
func (s *Sender) subflowDied(sf *subflow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sf.dead || s.finSent {
		return
	}
	sf.dead = true
	_ = sf.conn.Close() // wake the peer's reader promptly
	var requeue []*segment
	for seq, seg := range s.inflight {
		if seg.sub == sf.slot {
			requeue = append(requeue, seg)
			delete(s.inflight, seq)
		}
	}
	// Retransmissions go to the front, lowest sequence first.
	slices.SortFunc(requeue, func(a, b *segment) int { return cmp.Compare(a.seq, b.seq) })
	s.pending = append(requeue, s.pending...)
	if s.cfg.Dialer != nil && !s.closed {
		s.reconnecting++
		s.wg.Add(1)
		go s.reconnectLoop(sf.slot)
	}
	alive := countAlive(s.subs)
	s.failIfDeadLocked(alive)
	s.retransmits.Add(int64(len(requeue)))
	s.scope.Event(obs.EventSubflowDown,
		fmt.Sprintf("subflow %d down, %d alive", sf.slot, alive))
	if len(requeue) > 0 {
		s.scope.Event(obs.EventRetransmit,
			fmt.Sprintf("%d segments requeued from subflow %d", len(requeue), sf.slot))
	}
}

// failIfDeadLocked delivers the all-dead verdict when no subflow is alive,
// no redial is in flight, and data remains to carry or may still be
// written, and wakes every waiter. Caller holds s.mu.
func (s *Sender) failIfDeadLocked(alive int) {
	if alive == 0 && s.reconnecting == 0 && s.deadErr == nil &&
		(len(s.pending) > 0 || len(s.inflight) > 0 || !s.closed) {
		s.deadErr = ErrAllSubflowsDead
	}
	s.cond.Broadcast()
}

// reconnectLoop redials subflow i with exponential backoff + jitter,
// rejoins it to the channel via the JOIN handshake, and puts it back into
// service. It gives up after reconnectAttempts or when the sender closes.
func (s *Sender) reconnectLoop(i int) {
	defer s.wg.Done()
	defer s.reconnectDone()
	backoff := reconnectBackoff
	for attempt := 1; attempt <= reconnectAttempts; attempt++ {
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(backoff + s.backoffJitter(backoff)):
		}
		backoff *= 2
		conn, err := s.cfg.Dialer(i)
		if err != nil {
			s.scope.Logger().Debug("subflow redial failed",
				"subflow", i, "attempt", attempt, "err", err)
			continue
		}
		if err := s.joinHandshake(conn, i); err != nil {
			_ = conn.Close()
			s.scope.Logger().Debug("subflow join failed",
				"subflow", i, "attempt", attempt, "err", err)
			continue
		}
		if !s.install(i, conn) {
			// The channel closed while we were dialing.
			_ = conn.Close()
		}
		return
	}
}

// reconnectDone retires one redial loop; if nothing else can revive the
// channel, the all-dead verdict is delivered.
func (s *Sender) reconnectDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconnecting--
	s.failIfDeadLocked(countAlive(s.subs))
}

// joinHandshake identifies the reconnected socket to the receiver:
// channel ID + subflow index out, the same frame echoed back on accept.
// The exchange is bound to joinTimeout and to the sender's context, so
// Close expires it rather than waiting out joinTimeout, and an ack that
// arrives as the context ends fails the JOIN; a handshake that wins the
// race with Close is refused by install.
func (s *Sender) joinHandshake(conn net.Conn, i int) error {
	hdr := make([]byte, headerSize)
	header{typ: frameJoin, seq: s.cfg.ChannelID, length: uint32(i)}.put(hdr)
	ctx, cancel := context.WithTimeout(s.ctx, joinTimeout)
	defer cancel()
	bound := pipe.BindContext(ctx, conn)
	if _, err := conn.Write(hdr); err != nil {
		bound.Release()
		return fmt.Errorf("multipath: send join: %w", err)
	}
	_, err := io.ReadFull(conn, hdr)
	ctxEnded := bound.Release()
	if err != nil {
		return fmt.Errorf("multipath: read join ack: %w", err)
	}
	if h, err := parseHeader(hdr, s.cfg.MaxSegBytes); err != nil || h.typ != frameJoin || h.seq != s.cfg.ChannelID {
		return ErrJoinRejected
	}
	if ctxEnded {
		return fmt.Errorf("multipath: join aborted: %w", ctx.Err())
	}
	return nil
}

// install puts a rejoined socket into subflow slot i as a fresh
// incarnation and starts its worker pair.
func (s *Sender) install(i int, conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.finSent || s.deadErr != nil {
		return false
	}
	s.subs[i] = &subflow{slot: i, conn: conn}
	s.start(s.subs[i])
	s.cond.Broadcast()
	s.rejoins.Inc()
	s.scope.Event(obs.EventSubflowRejoin, "subflow "+strconv.Itoa(i)+" rejoined")
	return true
}

// backoffJitter draws a uniform [0, d/2] jitter from the seeded source.
func (s *Sender) backoffJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return time.Duration(s.rng.Int63n(int64(d)/2 + 1))
}

// CumAcked returns the count of contiguously acknowledged segments.
func (s *Sender) CumAcked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cumAcked
}

// AliveSubflows returns how many subflows are currently usable.
func (s *Sender) AliveSubflows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return countAlive(s.subs)
}
