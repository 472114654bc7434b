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
	// WindowSegs bounds unacknowledged segments (default 256); Write
	// blocks when the window is full.
	WindowSegs int
	// MaxBufferedBytes caps the receiver's reassembled-but-unread byte
	// buffer (default 8 MiB). While over the cap the receiver withholds
	// cumulative ACKs, so the sender's window closes and a non-reading
	// application cannot force unbounded buffering; at most one more
	// window (WindowSegs * MaxSegBytes) arrives past the cap.
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
	if c.WindowSegs <= 0 {
		c.WindowSegs = 256
	}
	if c.MaxBufferedBytes <= 0 {
		c.MaxBufferedBytes = 8 << 20
	}
}

const (
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
	// doubling each attempt with up to 50% added jitter, capped at
	// maxReconnectBackoff.
	reconnectBackoff    = 25 * time.Millisecond
	maxReconnectBackoff = 2 * time.Second
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

// Sender stripes a byte stream across subflows. It implements
// io.WriteCloser. Safe for one writer goroutine.
type Sender struct {
	cfg Config
	// wmu serializes writes on each subflow slot so a FIN cannot
	// interleave with a data frame's header/body pair.
	wmu []sync.Mutex
	// ctx ends when Close begins teardown: it stops reconnect loops and
	// expires a JOIN handshake in flight.
	ctx    context.Context
	cancel context.CancelFunc

	// rng drives reconnect backoff jitter, seeded from the channel ID so
	// runs are reproducible.
	rngMu sync.Mutex
	rng   *rand.Rand

	mu    sync.Mutex
	cond  *sync.Cond
	conns []net.Conn
	// epoch[i] counts incarnations of subflow slot i: every rejoin bumps
	// it, so goroutines serving a dead incarnation (or its late frames)
	// can detect they are stale and stand down.
	epoch        []uint64
	nextSeq      uint64
	cumAcked     uint64              // all seq < cumAcked are acknowledged
	pending      []*segment          // not yet assigned to a subflow
	inflight     map[uint64]*segment // assigned, unacked
	sentBy       []uint64            // segments written per subflow incarnation
	subAckedBy   []uint64            // segments sub-acked per subflow incarnation
	alive        []bool
	aliveN       int
	reconnecting int // subflows with a redial loop in flight
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
		cfg:        cfg,
		conns:      append([]net.Conn(nil), conns...),
		wmu:        make([]sync.Mutex, len(conns)),
		rng:        rand.New(rand.NewSource(int64(cfg.ChannelID) + 1)),
		epoch:      make([]uint64, len(conns)),
		inflight:   make(map[uint64]*segment),
		sentBy:     make([]uint64, len(conns)),
		subAckedBy: make([]uint64, len(conns)),
		alive:      make([]bool, len(conns)),
		aliveN:     len(conns),
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := range s.alive {
		s.alive[i] = true
	}
	s.scope = cfg.Obs.Scope("multipath")
	s.retransmits = cfg.Obs.Counter("cronets_multipath_retransmits_total",
		"Segments requeued onto surviving subflows after a subflow death.")
	s.rejoins = cfg.Obs.Counter("cronets_multipath_rejoins_total",
		"Dead subflows re-established via the reconnect loop.")
	s.bytesBy = make([]*obs.Counter, len(conns))
	for i := range conns {
		s.bytesBy[i] = cfg.Obs.Counter(
			obs.Label("cronets_multipath_subflow_bytes_total", "subflow", strconv.Itoa(i)),
			"Payload bytes written per subflow.")
		s.scope.Event(obs.EventSubflowUp, "subflow "+strconv.Itoa(i))
	}
	s.span = cfg.Tracer.Start("multipath.send", cfg.TraceCtx)
	s.span.SetDetail(strconv.Itoa(len(conns)) + " subflows")
	for i, c := range s.conns {
		s.wg.Add(2)
		go s.writeLoop(i, 0, c)
		go s.ackLoop(i, 0, c)
	}
	return s, nil
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
			len(s.pending)+len(s.inflight) >= s.cfg.WindowSegs {
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
	deadline := time.Now().Add(closeTimeout)
	for s.cumAcked < finSeq && s.deadErr == nil && time.Now().Before(deadline) {
		s.waitWithTimeout(50 * time.Millisecond)
	}
	err := s.deadErr
	if err == nil && s.cumAcked < finSeq {
		err = fmt.Errorf("multipath: close timed out with %d segments unacked", finSeq-s.cumAcked)
	}
	s.finSent = true
	conns := append([]net.Conn(nil), s.conns...)
	aliveSnapshot := append([]bool(nil), s.alive...)
	s.mu.Unlock()
	s.cancel()

	// Send FIN on every alive subflow (receivers tolerate duplicates).
	fin := make([]byte, headerSize)
	header{typ: frameFin, seq: finSeq}.put(fin)
	for i, c := range conns {
		if aliveSnapshot[i] {
			s.wmu[i].Lock()
			_, _ = c.Write(fin)
			s.wmu[i].Unlock()
		}
	}
	for _, c := range conns {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}
	// Give receivers a moment to drain, then close for real.
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
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

// waitWithTimeout waits on the cond var for at most d. Caller holds s.mu.
func (s *Sender) waitWithTimeout(d time.Duration) {
	t := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	s.cond.Wait()
}

// writeLoop pulls segments and writes them on subflow slot i (incarnation
// epoch, socket conn) until the channel shuts down, the subflow dies, or
// a rejoin supersedes this incarnation.
func (s *Sender) writeLoop(i int, epoch uint64, conn net.Conn) {
	defer s.wg.Done()
	hdr := make([]byte, headerSize)
	for {
		s.mu.Lock()
		for (len(s.pending) == 0 || s.inflightLocked(i) >= subflowInflight) &&
			!s.doneLocked() && s.alive[i] && s.epoch[i] == epoch {
			s.cond.Wait()
		}
		if (s.doneLocked() && len(s.pending) == 0) || !s.alive[i] || s.epoch[i] != epoch {
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
		seg.sub = i
		s.sentBy[i]++
		seg.writers++
		segLen := len(seg.data)
		s.mu.Unlock()

		header{typ: frameData, seq: seg.seq, length: uint32(segLen)}.put(hdr)
		s.wmu[i].Lock()
		_, err := conn.Write(hdr)
		if err == nil {
			_, err = conn.Write(seg.data)
		}
		s.wmu[i].Unlock()
		s.mu.Lock()
		seg.writers--
		if seg.acked {
			// The ACK landed mid-write; this writer held the release.
			releaseSegLocked(seg)
		}
		s.mu.Unlock()
		if err != nil {
			s.subflowDied(i, epoch)
			return
		}
		s.bytesBy[i].Add(int64(segLen))
		s.span.MarkFirstByte()
		s.span.AddBytes(int64(segLen))
	}
}

// doneLocked reports whether the sender has been closed and fully acked.
func (s *Sender) doneLocked() bool {
	return (s.closed && s.cumAcked >= s.nextSeq) || s.deadErr != nil || s.finSent
}

// inflightLocked returns the subflow's unacknowledged segment count.
// Caller holds s.mu.
func (s *Sender) inflightLocked(i int) int {
	return int(s.sentBy[i] - s.subAckedBy[i])
}

// ackLoop reads cumulative ACKs arriving on subflow slot i's incarnation.
func (s *Sender) ackLoop(i int, epoch uint64, conn net.Conn) {
	defer s.wg.Done()
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			s.subflowDied(i, epoch)
			return
		}
		h, err := parseHeader(hdr, s.cfg.MaxSegBytes)
		if err != nil || (h.typ != frameAck && h.typ != frameSubAck) {
			s.subflowDied(i, epoch)
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
			// Sub-ack counts are per incarnation; a stale epoch's count
			// must not corrupt the fresh socket's inflight accounting.
			if s.epoch[i] == epoch && value > s.subAckedBy[i] {
				s.subAckedBy[i] = value
				s.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// subflowDied marks incarnation epoch of subflow i dead, requeues its
// unacknowledged segments for retransmission on the survivors, and — with
// a Dialer configured — starts the reconnect loop. After the FIN has been
// sent the channel is tearing down and conns closing is not a failure.
func (s *Sender) subflowDied(i int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch[i] != epoch || !s.alive[i] || s.finSent {
		return
	}
	s.alive[i] = false
	s.aliveN--
	_ = s.conns[i].Close() // wake the peer's reader promptly
	var requeue []*segment
	for seq, seg := range s.inflight {
		if seg.sub == i {
			requeue = append(requeue, seg)
			delete(s.inflight, seq)
		}
	}
	s.sentBy[i] = 0
	s.subAckedBy[i] = 0
	// Retransmissions go to the front, lowest sequence first.
	slices.SortFunc(requeue, func(a, b *segment) int { return cmp.Compare(a.seq, b.seq) })
	s.pending = append(requeue, s.pending...)
	if s.cfg.Dialer != nil && !s.closed {
		s.reconnecting++
		s.wg.Add(1)
		go s.reconnectLoop(i)
	}
	if s.aliveN == 0 && s.reconnecting == 0 &&
		(len(s.pending) > 0 || len(s.inflight) > 0 || !s.closed) {
		s.deadErr = ErrAllSubflowsDead
	}
	s.cond.Broadcast()
	s.retransmits.Add(int64(len(requeue)))
	s.scope.Event(obs.EventSubflowDown,
		fmt.Sprintf("subflow %d down, %d alive", i, s.aliveN))
	if len(requeue) > 0 {
		s.scope.Event(obs.EventRetransmit,
			fmt.Sprintf("%d segments requeued from subflow %d", len(requeue), i))
	}
}

// reconnectLoop redials subflow i with exponential backoff + jitter,
// rejoins it to the channel via the JOIN handshake, and puts it back into
// service. It gives up after reconnectAttempts or when the sender closes.
func (s *Sender) reconnectLoop(i int) {
	defer s.wg.Done()
	backoff := reconnectBackoff
	for attempt := 1; attempt <= reconnectAttempts; attempt++ {
		select {
		case <-s.ctx.Done():
			s.reconnectDone(false)
			return
		case <-time.After(backoff + s.backoffJitter(backoff)):
		}
		if backoff < maxReconnectBackoff {
			backoff *= 2
		}
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
			s.reconnectDone(false)
			return
		}
		s.reconnectDone(true)
		return
	}
	s.reconnectDone(false)
}

// reconnectDone retires one redial loop; if it failed and nothing else can
// revive the channel, the all-dead verdict is delivered.
func (s *Sender) reconnectDone(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconnecting--
	if !ok && s.aliveN == 0 && s.reconnecting == 0 && s.deadErr == nil &&
		(len(s.pending) > 0 || len(s.inflight) > 0 || !s.closed) {
		s.deadErr = ErrAllSubflowsDead
	}
	s.cond.Broadcast()
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

// install puts a rejoined socket back into subflow slot i, bumping the
// slot's epoch and restarting its worker pair.
func (s *Sender) install(i int, conn net.Conn) bool {
	s.mu.Lock()
	if s.closed || s.finSent || s.deadErr != nil {
		s.mu.Unlock()
		return false
	}
	s.conns[i] = conn
	s.epoch[i]++
	epoch := s.epoch[i]
	s.alive[i] = true
	s.aliveN++
	s.sentBy[i] = 0
	s.subAckedBy[i] = 0
	s.wg.Add(2)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.rejoins.Inc()
	s.scope.Event(obs.EventSubflowRejoin,
		fmt.Sprintf("subflow %d rejoined (epoch %d)", i, epoch))
	go s.writeLoop(i, epoch, conn)
	go s.ackLoop(i, epoch, conn)
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
	return s.aliveN
}
