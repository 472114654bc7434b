package multipath

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// pipes builds n in-process subflow pairs.
func pipes(n int) (sender, receiver []net.Conn) {
	for i := 0; i < n; i++ {
		a, b := net.Pipe()
		sender = append(sender, a)
		receiver = append(receiver, b)
	}
	return sender, receiver
}

// tcpPairs builds n real-socket subflow pairs over loopback.
func tcpPairs(t *testing.T, n int) (sender, receiver []net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, n)
	go func() {
		for i := 0; i < n; i++ {
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
		sender = append(sender, c)
		receiver = append(receiver, <-accepted)
	}
	return sender, receiver
}

// transfer pushes payload through a channel with the given subflows and
// returns what the receiver reassembled.
func transfer(t *testing.T, senderConns, receiverConns []net.Conn, payload []byte, cfg Config) []byte {
	t.Helper()
	s, err := NewSender(senderConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(receiverConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

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
	if _, err := s.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	return got
}

func randomPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	rng.Read(p)
	return p
}

func TestSingleSubflowIdentity(t *testing.T) {
	s, r := pipes(1)
	payload := randomPayload(1, 200<<10)
	got := transfer(t, s, r, payload, Config{})
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted over one subflow")
	}
}

func TestFourSubflowsIdentity(t *testing.T) {
	s, r := pipes(4)
	payload := randomPayload(2, 1<<20)
	got := transfer(t, s, r, payload, Config{MaxSegBytes: 8 << 10})
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted over four subflows")
	}
}

func TestRealSocketsIdentity(t *testing.T) {
	s, r := tcpPairs(t, 3)
	payload := randomPayload(3, 2<<20)
	got := transfer(t, s, r, payload, Config{})
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted over TCP subflows")
	}
}

// TestManySizesIdentity: reassembly is the identity for a sweep of sizes,
// including empty, sub-segment and non-segment-aligned payloads.
func TestManySizesIdentity(t *testing.T) {
	sizes := []int{0, 1, 100, 32<<10 - 1, 32 << 10, 32<<10 + 1, 333333}
	for _, size := range sizes {
		s, r := pipes(2)
		payload := randomPayload(int64(size)+7, size)
		got := transfer(t, s, r, payload, Config{})
		if !bytes.Equal(got, payload) {
			t.Errorf("size %d corrupted (got %d bytes)", size, len(got))
		}
	}
}

func TestEmptyCloseOnly(t *testing.T) {
	s, r := pipes(2)
	got := transfer(t, s, r, nil, Config{})
	if len(got) != 0 {
		t.Errorf("got %d bytes from empty stream", len(got))
	}
}

func TestWriteAfterClose(t *testing.T) {
	sConns, rConns := pipes(1)
	s, err := NewSender(sConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() { _, _ = io.Copy(io.Discard, r) }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("late")); !errors.Is(err, ErrSenderClosed) {
		t.Errorf("err = %v, want ErrSenderClosed", err)
	}
}

// TestSubflowFailover: killing one subflow mid-transfer must not lose or
// corrupt data — its unacknowledged segments are retransmitted on the
// survivor.
func TestSubflowFailover(t *testing.T) {
	sConns, rConns := tcpPairs(t, 2)
	cfg := Config{MaxSegBytes: 4 << 10}
	s, err := NewSender(sConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	payload := randomPayload(9, 3<<20)
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
	// Kill subflow 0 on both ends (a path failure).
	_ = sConns[0].Close()
	_ = rConns[0].Close()
	if _, err := s.Write(payload[half:]); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if alive := s.AliveSubflows(); alive > 1 {
		t.Errorf("alive subflows = %d after killing one, want <= 1", alive)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after failover: %v", err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted after failover: got %d want %d bytes", len(got), len(payload))
	}
}

// TestAllSubflowsDead: with every path gone and data outstanding, Write
// reports the failure.
func TestAllSubflowsDead(t *testing.T) {
	sConns, rConns := tcpPairs(t, 2)
	s, err := NewSender(sConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range sConns {
		_ = c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Write(randomPayload(1, 64<<10)); err != nil {
			if !errors.Is(err, ErrAllSubflowsDead) {
				t.Fatalf("err = %v, want ErrAllSubflowsDead", err)
			}
			return
		}
	}
	t.Fatal("writes kept succeeding with all subflows dead")
}

func TestValidation(t *testing.T) {
	if _, err := NewSender(nil, Config{}); err == nil {
		t.Error("expected error for no subflows")
	}
	if _, err := NewReceiver(nil, Config{}); err == nil {
		t.Error("expected error for no subflows")
	}
}

func TestCumAckedProgress(t *testing.T) {
	sConns, rConns := pipes(1)
	s, err := NewSender(sConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() { _, _ = io.Copy(io.Discard, r) }()
	if _, err := s.Write(randomPayload(4, 500<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 500 KiB / 32 KiB = 16 segments.
	if s.CumAcked() != 16 {
		t.Errorf("CumAcked = %d, want 16", s.CumAcked())
	}
}

func TestDoubleClose(t *testing.T) {
	sConns, rConns := pipes(1)
	s, err := NewSender(sConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(rConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() { _, _ = io.Copy(io.Discard, r) }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestConcurrentlyInterleavedSegments(t *testing.T) {
	// Tiny segments over many subflows maximize reordering pressure.
	s, r := pipes(8)
	payload := randomPayload(11, 512<<10)
	got := transfer(t, s, r, payload, Config{MaxSegBytes: 512})
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted under heavy interleaving")
	}
}
