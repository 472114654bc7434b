package relay

// Error-path coverage for the client half of the CONNECT handshake:
// preamble write failure, short/garbled replies, refusal classification,
// and context cancellation mid-preamble. Connect promises the socket is
// closed on every error — each test asserts that too.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// failWriteConn fails every write; Close is observable.
type failWriteConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *failWriteConn) Write([]byte) (int, error) {
	return 0, errors.New("wire cut")
}

func (c *failWriteConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func TestConnectPreambleWriteFailure(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := &failWriteConn{Conn: a}
	_, err := Connect(context.Background(), conn, "192.0.2.1:9")
	if err == nil {
		t.Fatal("Connect succeeded through a dead writer")
	}
	if !strings.Contains(err.Error(), "send connect") {
		t.Errorf("err = %v, want a send-connect failure", err)
	}
	if !conn.closed.Load() {
		t.Error("Connect left the socket open after a write failure")
	}
}

// connectServer accepts one connection, reads the preamble line, and
// runs reply against the raw socket (sending a response, closing early,
// or stalling).
func connectServer(t *testing.T, reply func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil || buf[0] == '\n' {
				break
			}
		}
		reply(c)
	}()
	return ln.Addr().String()
}

func TestConnectShortReply(t *testing.T) {
	// The relay dies mid-reply: a partial line with no newline is a read
	// error (EOF before the terminator), not a refusal.
	addr := connectServer(t, func(c net.Conn) {
		_, _ = c.Write([]byte("O")) // short: no terminator
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialVia(ctx, addr, "192.0.2.1:9")
	if err == nil {
		t.Fatal("Connect succeeded on a truncated reply")
	}
	if !strings.Contains(err.Error(), "read connect reply") {
		t.Errorf("err = %v, want a read-reply failure", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Errorf("truncated reply misclassified as refusal: %v", err)
	}
}

func TestConnectGarbledReply(t *testing.T) {
	// A complete line that is not "OK" is a refusal carrying the relay's
	// words, classifiable with errors.Is(err, ErrRefused).
	addr := connectServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "ERR forbidden\n")
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialVia(ctx, addr, "192.0.2.1:9")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if !strings.Contains(err.Error(), "ERR forbidden") {
		t.Errorf("err = %v, want the relay's ERR line preserved", err)
	}
}

func TestConnectOverlongReply(t *testing.T) {
	// A reply with no newline within connectReplyBytes is longer than any
	// the relay sends: Connect stops reading there and reports a
	// malformed reply, not a refusal, and closes the socket.
	closed := make(chan error, 1)
	addr := connectServer(t, func(c net.Conn) {
		_, _ = c.Write(append(bytes.Repeat([]byte("E"), 4*connectReplyBytes), '\n'))
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := c.Read(make([]byte, 1))
		closed <- err
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialVia(ctx, addr, "192.0.2.1:9")
	if err == nil || !strings.Contains(err.Error(), "malformed connect reply") {
		t.Fatalf("err = %v, want a malformed-reply error", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Errorf("overlong reply misclassified as refusal: %v", err)
	}
	if err := <-closed; err == nil || os.IsTimeout(err) {
		t.Errorf("relay side read %v, want the socket closed by Connect", err)
	}
}

func TestConnectRefusedByRealRelay(t *testing.T) {
	// End-to-end refusal: a real relay whose ACL forbids the target
	// answers ERR, and the client error matches ErrRefused.
	acl, err := NewACL([]string{"10.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := startRelay(t, Config{ACL: acl})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = dialVia(ctx, r.Addr().String(), "192.0.2.1:9")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("ACL rejection err = %v, want ErrRefused", err)
	}
}

func TestConnectCancelMidPreamble(t *testing.T) {
	// The relay accepts, swallows the preamble, and never answers.
	// Cancelling the context must force-expire the socket so Connect
	// returns promptly with the context's error, not hang on the read.
	stall := make(chan struct{})
	defer close(stall)
	addr := connectServer(t, func(c net.Conn) { <-stall })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := dialVia(ctx, addr, "192.0.2.1:9")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("Connect took %v to honor cancellation", waited)
	}
}

func TestConnectDeadlineMidPreamble(t *testing.T) {
	// Same stall, but via a context deadline: the error surfaces as
	// context.DeadlineExceeded so pathmon classifies it as a timeout,
	// not a refusal.
	stall := make(chan struct{})
	defer close(stall)
	addr := connectServer(t, func(c net.Conn) { <-stall })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := dialVia(ctx, addr, "192.0.2.1:9")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Errorf("timeout misclassified as refusal: %v", err)
	}
}

// replyRaceConn ends its context the moment a read brings in the end of
// the CONNECT reply, so the context ends just as the OK arrives. The
// context's watch then sets an expired deadline; replyRaceConn holds
// that until Connect has cleared the deadline or closed the conn, the
// order in which a watch that fired too late expires a handed-on conn.
type replyRaceConn struct {
	net.Conn
	cancel  context.CancelFunc
	once    sync.Once
	settled chan struct{} // closed by the first clear or Close
	expired chan struct{} // closed once the watch's expiry is set
}

func (c *replyRaceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if bytes.IndexByte(p[:n], '\n') >= 0 {
		c.cancel()
	}
	return n, err
}

func (c *replyRaceConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		c.once.Do(func() { close(c.settled) })
		return c.Conn.SetDeadline(t)
	}
	if !t.Before(time.Now()) {
		return c.Conn.SetDeadline(t)
	}
	<-c.settled
	err := c.Conn.SetDeadline(t)
	close(c.expired)
	return err
}

func (c *replyRaceConn) Close() error {
	c.once.Do(func() { close(c.settled) })
	return c.Conn.Close()
}

// TestConnectContextEndsWithReply: a context that ends just as the OK
// arrives must not hand on a conn whose deadline has expired. Connect
// either fails with the context's error or returns a conn that still
// echoes.
func TestConnectContextEndsWithReply(t *testing.T) {
	addr := connectServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "OK\n")
		_, _ = io.Copy(c, c)
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc := &replyRaceConn{Conn: raw, cancel: cancel,
		settled: make(chan struct{}), expired: make(chan struct{})}
	conn, err := Connect(ctx, rc, "192.0.2.1:9")
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		return
	}
	defer conn.Close()
	select {
	case <-rc.expired:
	case <-time.After(5 * time.Second):
	}
	if got := roundtrip(t, conn, "ping"); got != "ping" {
		t.Fatalf("echo = %q, want %q", got, "ping")
	}
}

// TestConnectHalfCloseAfterOverRead: the relay's OK and the destination's
// first bytes arrive in one read, as with a server-first protocol (an SSH
// or SMTP banner). The returned conn must replay those bytes and still
// pass the client's half-close upstream; without CloseWrite the flow
// would wait out the relay's idle timeout.
func TestConnectHalfCloseAfterOverRead(t *testing.T) {
	upstreamEOF := make(chan error, 1)
	addr := connectServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "OK\nhello")
		_, err := io.ReadAll(c)
		upstreamEOF <- err
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, addr, "192.0.2.1:9")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, len("hello"))
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v; want the banner bytes that followed OK", buf, err)
	}
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok {
		t.Fatalf("relayed conn %T cannot half-close", conn)
	}
	if err := cw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-upstreamEOF:
		if err != nil {
			t.Fatalf("upstream read ended with %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the half-close never reached the relay")
	}
}
