package multipath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/servertest"
)

// joinableReceiver starts a receiver whose listener routes the first n
// accepted connections to the initial subflow set and every later one
// through Join — the shape a proxy process would use.
func joinableReceiver(t *testing.T, n int, cfg Config) (*Receiver, []net.Conn, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })

	var senderConns, receiverConns []net.Conn
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		senderConns = append(senderConns, c)
		receiverConns = append(receiverConns, <-accepted)
	}
	r, err := NewReceiver(receiverConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	// Late arrivals are JOIN attempts.
	go func() {
		for c := range accepted {
			_ = r.Join(c)
		}
	}()
	return r, senderConns, ln
}

// TestSubflowRejoin: a subflow killed mid-transfer is redialed, rejoins
// via the JOIN handshake, and the transfer completes byte-identical with
// the subflow back in service.
func TestSubflowRejoin(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		MaxSegBytes: 4 << 10,
		ChannelID:   77,
		Obs:         reg,
	}
	r, senderConns, ln := joinableReceiver(t, 2, cfg)
	cfg.Dialer = func(int) (net.Conn, error) {
		return net.Dial("tcp", ln.Addr().String())
	}
	s, err := NewSender(senderConns, cfg)
	if err != nil {
		t.Fatal(err)
	}

	payload := randomPayload(21, 2<<20)
	var (
		got     []byte
		readErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, readErr = io.ReadAll(r)
	}()

	half := len(payload) / 2
	if _, err := s.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	// Kill subflow 0's socket (path failure); the reconnect loop should
	// bring the slot back. Wait on the sender-side rejoin counter rather
	// than AliveSubflows: the death may not be detected yet at the first
	// check, so alive==2 alone cannot distinguish "already rejoined" from
	// "not yet noticed the kill".
	_ = senderConns[0].Close()
	rejoined := reg.Counter("cronets_multipath_rejoins_total", "")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rejoined.Value() < 1 {
		if _, err := s.Write(payload[half : half+1]); err != nil {
			t.Fatalf("write during failover: %v", err)
		}
		half++
		time.Sleep(time.Millisecond)
	}
	if s.AliveSubflows() != 2 {
		t.Fatalf("subflow never rejoined: alive = %d", s.AliveSubflows())
	}
	if _, err := s.Write(payload[half:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across rejoin: got %d want %d bytes", len(got), len(payload))
	}
	if v := reg.Counter("cronets_multipath_rejoins_total", "").Value(); v < 1 {
		t.Errorf("rejoins counter = %d, want >= 1", v)
	}
	rejoins := 0
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventSubflowRejoin {
			rejoins++
		}
	}
	if rejoins < 2 { // one sender-side, one receiver-side
		t.Errorf("subflow-rejoin events = %d, want >= 2", rejoins)
	}
}

// TestReconnectGivesUp: when the dialer keeps failing, the sender retries
// its bounded attempts and then reports all subflows dead.
func TestReconnectGivesUp(t *testing.T) {
	sConns, rConns := tcpPairs(t, 1)
	cfg := Config{
		ChannelID: 1,
	}
	cfg.Dialer = func(int) (net.Conn, error) {
		return nil, errors.New("no route")
	}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_ = sConns[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Write(randomPayload(1, 64<<10)); err != nil {
			if !errors.Is(err, ErrAllSubflowsDead) {
				t.Fatalf("err = %v, want ErrAllSubflowsDead", err)
			}
			return
		}
	}
	t.Fatal("writes kept succeeding with the only subflow dead and redials failing")
}

// TestJoinRejectsWrongChannel: a JOIN for a different channel ID is
// refused and the socket closed.
func TestJoinRejectsWrongChannel(t *testing.T) {
	_, rConns := pipes(1)
	r, err := NewReceiver(rConns, Config{ChannelID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	a, b := net.Pipe()
	defer a.Close()
	go func() {
		hdr := make([]byte, headerSize)
		hdr[0] = frameJoin
		binary.BigEndian.PutUint64(hdr[1:9], 99) // wrong channel
		binary.BigEndian.PutUint32(hdr[9:13], 0)
		_, _ = a.Write(hdr)
	}()
	if err := r.Join(b); !errors.Is(err, ErrJoinRejected) {
		t.Errorf("Join = %v, want ErrJoinRejected", err)
	}
	// The socket must be closed after rejection.
	_ = a.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Error("rejected join left the socket open")
	}
}

// TestJoinRejectsBadIndex: a JOIN naming a subflow slot that does not
// exist is refused.
func TestJoinRejectsBadIndex(t *testing.T) {
	_, rConns := pipes(1)
	r, err := NewReceiver(rConns, Config{ChannelID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	a, b := net.Pipe()
	defer a.Close()
	go func() {
		hdr := make([]byte, headerSize)
		hdr[0] = frameJoin
		binary.BigEndian.PutUint64(hdr[1:9], 7)
		binary.BigEndian.PutUint32(hdr[9:13], 5) // slot 5 of a 1-subflow channel
		_, _ = a.Write(hdr)
	}()
	if err := r.Join(b); !errors.Is(err, ErrJoinRejected) {
		t.Errorf("Join = %v, want ErrJoinRejected", err)
	}
}

// TestOversizedFrameRejected (regression): a data frame advertising a
// 4 GiB-scale length must be rejected against MaxSegBytes, not allocated.
// Pre-fix the receiver did make([]byte, length) straight off the wire.
func TestOversizedFrameRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	r, err := NewReceiver([]net.Conn{b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	go func() {
		hdr := make([]byte, headerSize)
		hdr[0] = frameData
		binary.BigEndian.PutUint64(hdr[1:9], 0)
		binary.BigEndian.PutUint32(hdr[9:13], 0xfffffff0) // ~4 GiB claim
		_, _ = a.Write(hdr)
	}()
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(r)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("oversized frame should fail the stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver hung on an oversized frame instead of rejecting it")
	}
}

// TestReceiverBackpressure (regression): with the application not
// reading, the receiver's delivered buffer must stay near
// MaxBufferedBytes (cap + one sender window) instead of absorbing the
// whole transfer; once the application reads, the withheld ACKs resume
// and the full payload arrives intact.
func TestReceiverBackpressure(t *testing.T) {
	sConns, rConns := tcpPairs(t, 1)
	cfg := Config{
		MaxSegBytes:      4 << 10,
		MaxBufferedBytes: 32 << 10,
	}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	payload := randomPayload(31, 4<<20)
	writeDone := make(chan error, 1)
	go func() {
		if _, err := s.Write(payload); err != nil {
			writeDone <- err
			return
		}
		writeDone <- s.Close()
	}()

	// Without a reader, the buffer must plateau at cap + window, far
	// below the 4 MiB payload. Pre-fix it absorbed everything.
	limit := cfg.MaxBufferedBytes + windowSegs*cfg.MaxSegBytes + cfg.MaxSegBytes
	time.Sleep(300 * time.Millisecond)
	if buf := r.Buffered(); buf > limit {
		t.Fatalf("unread delivered buffer = %d bytes, want <= %d (flow control missing)", buf, limit)
	}
	select {
	case err := <-writeDone:
		t.Fatalf("sender finished against a non-reading receiver (err=%v); no backpressure", err)
	default:
	}

	// Start reading: ACKs resume and the stream completes intact.
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted under backpressure: got %d want %d bytes", len(got), len(payload))
	}
	if err := <-writeDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestCleanCloseNoSpuriousFailover (regression): a clean transfer must
// not record subflow deaths or retransmits when Close tears the conns
// down after the FIN — pre-fix every ackLoop's read error fired
// subflowDied.
func TestCleanCloseNoSpuriousFailover(t *testing.T) {
	reg := obs.NewRegistry()
	sConns, rConns := tcpPairs(t, 2)
	cfg := Config{Obs: reg}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = io.Copy(io.Discard, r)
	}()
	if _, err := s.Write(randomPayload(41, 512<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	wg.Wait()
	_ = r.Close()

	if v := reg.Counter("cronets_multipath_retransmits_total", "").Value(); v != 0 {
		t.Errorf("retransmits after clean close = %d, want 0", v)
	}
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventSubflowDown {
			t.Errorf("spurious subflow-down event after clean close: %s", e.Detail)
		}
	}
}

// TestCloseWithRejoinInFlight: closing both ends while a subflow's rejoin
// is in flight (the sender's JOIN sent and unanswered, the receiver's Join
// not yet run) gives back every goroutine and socket.
func TestCloseWithRejoinInFlight(t *testing.T) {
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	redialed := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			redialed <- c
		}
	}()
	sConns, rConns := tcpPairs(t, 2)
	cfg := Config{
		ChannelID: 7,
		Dialer: func(int) (net.Conn, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		},
	}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	_ = rConns[1].Close() // subflow 1 dies on both ends; the sender redials
	var joining net.Conn
	select {
	case joining = <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never redialed")
	}
	_ = ln.Close()

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	// The late Join finds the receiver closed and hangs up, which fails
	// the sender's handshake and lets its reconnect loop exit.
	if err := r.Join(joining); err == nil {
		t.Error("Join succeeded on a closed receiver")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Sender.Close did not return")
	}
	check()
}

// TestCloseExpiresUnansweredJoin: Close while a rejoin's JOIN is sent and
// never answered returns at once, expiring the handshake instead of
// waiting out joinTimeout, and gives back every goroutine and socket.
func TestCloseExpiresUnansweredJoin(t *testing.T) {
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	redialed := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			redialed <- c // held open, never answered
		}
	}()
	sConns, rConns := tcpPairs(t, 2)
	cfg := Config{
		ChannelID: 7,
		Dialer: func(int) (net.Conn, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		},
	}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = io.Copy(io.Discard, r)
	}()
	if _, err := s.Write(bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	_ = rConns[1].Close() // subflow 1 dies on both ends; the sender redials
	var joining net.Conn
	select {
	case joining = <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never redialed")
	}
	defer joining.Close()
	// The JOIN frame arrives: the handshake now waits on the reply.
	if _, err := io.ReadFull(joining, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_ = s.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a JOIN unanswered, want < 1 s", took)
	}
	wg.Wait()
	_ = r.Close()
	_ = joining.Close()
	_ = ln.Close()
	check()
}

// TestRejoinCountsAfresh: a Join starts a fresh incarnation of its slot.
// The sub-ack for a segment leaves on the socket that carried it and
// counts only that socket's segments, so the rejoined socket's first
// sub-ack is 1 whatever the superseded socket had counted.
func TestRejoinCountsAfresh(t *testing.T) {
	sOld, rOld := tcpPairs(t, 1)
	r, err := NewReceiver(rOld, Config{ChannelID: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	send := func(c net.Conn, h header, body []byte) {
		b := make([]byte, headerSize, headerSize+len(body))
		h.put(b)
		if _, err := c.Write(append(b, body...)); err != nil {
			t.Fatal(err)
		}
	}
	// next reads the next frame of type typ on c, skipping the others.
	next := func(c net.Conn, typ byte) header {
		b := make([]byte, headerSize)
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				t.Fatal(err)
			}
			if h, err := parseHeader(b, 32<<10); err != nil || h.typ == typ {
				return h
			}
		}
	}

	for seq := uint64(0); seq < 3; seq++ {
		send(sOld[0], header{typ: frameData, seq: seq, length: 1}, []byte{byte(seq)})
		if got := next(sOld[0], frameSubAck).seq; got != seq+1 {
			t.Fatalf("sub-ack %d on the first socket = %d", seq+1, got)
		}
	}
	sNew, rNew := tcpPairs(t, 1)
	send(sNew[0], header{typ: frameJoin, seq: 3}, nil)
	if err := r.Join(rNew[0]); err != nil {
		t.Fatal(err)
	}
	next(sNew[0], frameJoin)
	send(sNew[0], header{typ: frameData, seq: 3, length: 1}, []byte{3})
	if got := next(sNew[0], frameSubAck).seq; got != 1 {
		t.Errorf("first sub-ack on the rejoined socket = %d, want 1", got)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Errorf("read %v (%v), want [0 1 2 3]", got, err)
	}
}
