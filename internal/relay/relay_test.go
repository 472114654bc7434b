package relay

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
	"cronets/internal/servertest"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

func startRelay(t *testing.T, cfg Config) *Relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, cfg)
	go r.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// dialVia opens a connection to target through the CONNECT-mode relay at
// relayAddr: a TCP dial, then the CONNECT handshake. (The chain package
// owns the production dial path, but it imports relay.)
func dialVia(ctx context.Context, relayAddr, target string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", relayAddr)
	if err != nil {
		return nil, err
	}
	return Connect(ctx, conn, target)
}

// waitFor polls cond until it holds or a 5 s deadline expires (counters
// are incremented by handler goroutines after the client sees a reply).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Error("condition not reached within deadline")
	}
}

func roundtrip(t *testing.T, conn net.Conn, msg string) string {
	t.Helper()
	if _, err := io.WriteString(conn, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestFixedTargetForward(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String()})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "through the overlay"); got != "through the overlay" {
		t.Errorf("echo = %q", got)
	}
	if r.Stats().Accepted.Load() != 1 {
		t.Errorf("accepted = %d", r.Stats().Accepted.Load())
	}
	// The echo can reach the client before the copy loop counts the
	// bytes it wrote.
	waitFor(t, func() bool { return r.Stats().BytesUp.Load() > 0 && r.Stats().BytesDown.Load() > 0 })
	if r.Stats().BytesUp.Load() == 0 || r.Stats().BytesDown.Load() == 0 {
		t.Error("byte counters not updated")
	}
}

func TestConnectMode(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "split tcp hop"); got != "split tcp hop" {
		t.Errorf("echo = %q", got)
	}
}

func TestConnectModeBadRequest(t *testing.T) {
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR") {
		t.Errorf("reply = %q, want ERR", line)
	}
}

// TestConnectLineBounded: a client that streams bytes with no newline
// gets "ERR bad request" once it has sent one reader's worth, not when
// the pre-CONNECT deadline (IdleTimeout) expires; the relay counts an
// error, the handler returns, and the rest of a 1 MiB stream is refused.
func TestConnectLineBounded(t *testing.T) {
	r := startRelay(t, Config{IdleTimeout: time.Minute})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stream := bytes.Repeat([]byte("a"), 1<<20)
	if _, err := conn.Write(stream[:connectLineBytes]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || line != "ERR bad request\n" {
		t.Fatalf("reply to %d bytes without a newline = %q, %v; want ERR bad request", connectLineBytes, line, err)
	}
	waitFor(t, func() bool { return r.Stats().Errors.Load() == 1 && r.pending.Load() == 0 })
	// The handler has returned and the connection is closed: the rest of
	// the stream is refused or goes unread.
	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, _ = conn.Write(stream[connectLineBytes:])
	if n, err := br.Read(make([]byte, 1)); err == nil {
		t.Errorf("read %d more bytes after the ERR reply, want the connection closed", n)
	}
}

func TestConnectModeDialFailure(t *testing.T) {
	r := startRelay(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Port 1 on localhost should refuse.
	_, err := dialVia(ctx, r.Addr().String(), "127.0.0.1:1")
	if err == nil {
		t.Fatal("expected dial failure via relay")
	}
	// The handler counts the error after writing the ERR reply.
	waitFor(t, func() bool { return r.Stats().Errors.Load() > 0 })
	if r.Stats().Errors.Load() == 0 {
		t.Error("error counter not incremented")
	}
}

func TestParseConnectTrace(t *testing.T) {
	sampled := flowtrace.Context{Trace: flowtrace.TraceID{1, 2, 3}, Span: 42, Sampled: true}
	zeroTrace := flowtrace.Context{Span: 42, Sampled: true}
	tests := []struct {
		line    string
		want    string
		wantTC  flowtrace.Context
		wantErr bool
	}{
		{"CONNECT 10.0.0.1:80\n", "10.0.0.1:80", flowtrace.Context{}, false},
		{"CONNECT example.com:443", "example.com:443", flowtrace.Context{}, false},
		{"CONNECT [::1]:80\n", "[::1]:80", flowtrace.Context{}, false},
		{"CONNECT 10.0.0.1:80 TP=" + sampled.EncodeText() + "\n", "10.0.0.1:80", sampled, false},
		// A bad trace token never fails the handshake: it yields no context.
		{"CONNECT 10.0.0.1:80 TP=" + sampled.EncodeText()[:40] + "\n", "10.0.0.1:80", flowtrace.Context{}, false},
		{"CONNECT 10.0.0.1:80 TP=" + strings.Repeat("zz", flowtrace.WireSize) + "\n", "10.0.0.1:80", flowtrace.Context{}, false},
		{"CONNECT 10.0.0.1:80 TP=" + zeroTrace.EncodeText() + "\n", "10.0.0.1:80", flowtrace.Context{}, false},
		{"CONNECT 10.0.0.1:80 XX=" + sampled.EncodeText() + "\n", "10.0.0.1:80", flowtrace.Context{}, false},
		{"CONNECT nohost\n", "", flowtrace.Context{}, true},
		{"CONNECT :80\n", "", flowtrace.Context{}, true},
		{"CONNECT nohost TP=" + sampled.EncodeText() + "\n", "", flowtrace.Context{}, true},
		// Longer than the relay's CONNECT reader holds.
		{"CONNECT " + strings.Repeat("a", connectLineBytes) + ":80\n", "", flowtrace.Context{}, true},
		{"FETCH 10.0.0.1:80\n", "", flowtrace.Context{}, true},
		{"", "", flowtrace.Context{}, true},
	}
	for _, tt := range tests {
		got, tc, err := ParseConnectTrace(tt.line)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseConnectTrace(%q) err = %v", tt.line, err)
			continue
		}
		if got != tt.want || tc != tt.wantTC {
			t.Errorf("ParseConnectTrace(%q) = %q, %+v; want %q, %+v", tt.line, got, tc, tt.want, tt.wantTC)
		}
		// Parse the line over a buffer, as the relay does, copy out the
		// target and overwrite the buffer: nothing else returned may
		// share the buffer's memory.
		buf := []byte(tt.line)
		bufTarget, bufTC, bufErr := ParseConnectTrace(unsafe.String(unsafe.SliceData(buf), len(buf)))
		bufTarget = strings.Clone(bufTarget)
		for i := range buf {
			buf[i] = '#'
		}
		if bufTarget != got || bufTC != tc || fmt.Sprint(bufErr) != fmt.Sprint(err) {
			t.Errorf("ParseConnectTrace(%q) over an overwritten buffer = %q, %+v, %v; want %q, %+v, %v",
				tt.line, bufTarget, bufTC, bufErr, got, tc, err)
		}
	}
}

func TestMaxConns(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String(), MaxConns: 1})

	first, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if got := roundtrip(t, first, "hold"); got != "hold" {
		t.Fatal("first connection broken")
	}

	// Second connection should be dropped by the relay.
	second, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, _ = io.WriteString(second, "x")
	if _, err := second.Read(buf); err == nil {
		t.Error("second connection should have been closed")
	}
}

func TestIdleTimeout(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String(), IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "warm"); got != "warm" {
		t.Fatal("initial echo failed")
	}
	// Stay idle past the timeout; the relay should cut the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection not closed")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, Config{Target: "127.0.0.1:1"})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, pipe.ErrServerClosed) {
			t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestServeSurvivesEMFILE: accept failing with EMFILE (the process is
// out of file descriptors) must not end Serve. In cronetsd a returned
// Serve exits the process and drops every live flow.
func TestServeSurvivesEMFILE(t *testing.T) {
	echo := echoServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(servertest.EMFILEListener(ln, 3), Config{Target: echo.Addr().String()})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "after EMFILE"); got != "after EMFILE" {
		t.Errorf("echo = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
}

// lateListener hands Serve one more connection once its listener is
// closed: the accept that races Close.
type lateListener struct {
	net.Listener
	late net.Conn // only the serving goroutine calls Accept
}

func (l *lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil && l.late != nil {
		c, l.late = l.late, nil
		return c, nil
	}
	return c, err
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// TestAcceptDuringCloseIsClosed: a connection accepted while Close runs
// is closed at once, not served: its handler would hold Close, or outlive
// it, while waiting up to IdleTimeout for a CONNECT line. Close with live
// flows gives back every goroutine and socket.
func TestAcceptDuringCloseIsClosed(t *testing.T) {
	echo := echoServer(t)
	check := servertest.CheckLeaks(t)
	lateClient, late := tcpPair(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(&lateListener{Listener: ln, late: late}, Config{IdleTimeout: 3 * time.Second})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	clients := []net.Conn{lateClient}
	for i := 0; i < 2; i++ {
		conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, conn)
		if got := roundtrip(t, conn, "live"); got != "live" {
			t.Fatalf("echo = %q", got)
		}
	}
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v, want < 1 s", took)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
	for i, c := range clients {
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("client %d still open 1 s after Close (read: %v)", i, err)
		}
		_ = c.Close()
	}
	check()
}

func TestChainedRelays(t *testing.T) {
	// Two overlay hops in sequence (multi-hop overlay, Section VII-B).
	echo := echoServer(t)
	inner := startRelay(t, Config{Target: echo.Addr().String()})
	outer := startRelay(t, Config{Target: inner.Addr().String()})
	conn, err := net.Dial("tcp", outer.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "two hops"); got != "two hops" {
		t.Errorf("echo = %q", got)
	}
}

func TestLargeTransferThroughRelay(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String()})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const total = 4 << 20
	go func() {
		chunk := make([]byte, 64<<10)
		for i := range chunk {
			chunk[i] = byte(i)
		}
		sent := 0
		for sent < total {
			n, err := conn.Write(chunk)
			if err != nil {
				return
			}
			sent += n
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	got, err := io.ReadAll(io.LimitReader(conn, total))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Errorf("read %d bytes, want %d", len(got), total)
	}
	for i := 0; i < 64<<10; i++ {
		if got[i] != byte(i) {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

// TestConnectModePipelinedData: bytes a client sends in the same write as
// its CONNECT line, without waiting for OK, reach the target intact,
// whether they fit in the relay's CONNECT reader or run far past it, and
// count in Stats.BytesUp and the relay.splice span.
func TestConnectModePipelinedData(t *testing.T) {
	echo := echoServer(t)
	tracer := flowtrace.New(flowtrace.Config{Seed: 1})
	r := startRelay(t, Config{Tracer: tracer})
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1}, Span: 1, Sampled: true}
	var up int64
	for _, payload := range [][]byte{[]byte("early"), seededPayload(1 << 20)} {
		got := pipelinedEcho(t, r.Addr().String(), echo.Addr().String(), tc, payload)
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte pipelined payload came back different", len(payload))
		}
		up += int64(len(payload))
		waitFor(t, func() bool { return r.Stats().BytesUp.Load() == up })
	}
	spliceBytes := func() []int64 {
		var out []int64
		for _, s := range tracer.Snapshot() {
			if s.Name == "relay.splice" {
				out = append(out, s.Bytes())
			}
		}
		slices.Sort(out)
		return out
	}
	waitFor(t, func() bool { return len(spliceBytes()) == 2 })
	if got, want := spliceBytes(), []int64{2 * 5, 2 << 20}; !slices.Equal(got, want) {
		t.Errorf("relay.splice span bytes = %v, want %v", got, want)
	}
}

// pipelinedEcho sends payload to the echo target echoAddr through the
// CONNECT-mode relay at relayAddr, in the same write as the CONNECT line
// (carrying tc), and returns the echo. The connection is closed on
// return.
func pipelinedEcho(t *testing.T, relayAddr, echoAddr string, tc flowtrace.Context, payload []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(append(appendConnectLine(nil, echoAddr, tc), payload...))
		werr <- err
	}()
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("handshake: %q, %v", line, err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	return got
}

// seededPayload returns n bytes of fixed pseudo-random data.
func seededPayload(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}

// flakyDialer fails its first n dials with ECONNREFUSED, then delegates
// to a real dialer — a target that refuses until it finishes restarting.
type flakyDialer struct {
	mu       sync.Mutex
	failures int
	attempts int
	inner    net.Dialer
}

func (d *flakyDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.attempts++
	refuse := d.attempts <= d.failures
	d.mu.Unlock()
	if refuse {
		return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
	}
	return d.inner.DialContext(ctx, network, addr)
}

// TestDialRetrySucceeds: a target refusing the first N connects is still
// reached once the bounded retry loop outlasts the refusals, and the
// retries are counted.
func TestDialRetrySucceeds(t *testing.T) {
	echo := echoServer(t)
	dialer := &flakyDialer{failures: 2}
	r := startRelay(t, Config{
		Target:           echo.Addr().String(),
		Dialer:           dialer,
		DialRetries:      3,
		DialRetryBackoff: 5 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "after restart"); got != "after restart" {
		t.Errorf("echo = %q", got)
	}
	if got := r.Stats().DialRetries.Load(); got != 2 {
		t.Errorf("dial retries = %d, want 2", got)
	}
	if got := r.Stats().Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (retries are not errors)", got)
	}
}

// TestDialRetryExhausted: when refusals outlast the retry budget the
// relay gives up and counts one error.
func TestDialRetryExhausted(t *testing.T) {
	echo := echoServer(t)
	dialer := &flakyDialer{failures: 10}
	r := startRelay(t, Config{
		Target:           echo.Addr().String(),
		Dialer:           dialer,
		DialRetries:      2,
		DialRetryBackoff: time.Millisecond,
	})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection should drop once retries are exhausted")
	}
	waitFor(t, func() bool { return r.Stats().Errors.Load() == 1 })
	if got := r.Stats().DialRetries.Load(); got != 2 {
		t.Errorf("dial retries = %d, want 2", got)
	}
}

// TestNonTransientDialNotRetried: an unreachable-network style failure
// fails fast even with retries configured.
func TestNonTransientDialNotRetried(t *testing.T) {
	if transientDialError(errors.New("no such host")) {
		t.Error("generic error classified transient")
	}
	if !transientDialError(&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}) {
		t.Error("ECONNREFUSED should be transient")
	}
	if !transientDialError(context.DeadlineExceeded) {
		t.Error("deadline exceeded should be transient")
	}
}

// holdServer accepts connections and holds them open without answering,
// so relayed connections stay Active for the duration of the test.
func holdServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range held {
			_ = c.Close()
		}
		mu.Unlock()
	})
	return ln
}

// TestMaxConnsAcceptBurst (regression): a burst of simultaneous connects
// must never overshoot MaxConns. Pre-fix, Serve checked Stats.Active —
// which the handler goroutine increments later — so a burst sailed
// through; capacity is now reserved atomically at accept time and the
// shed connections land in Stats.Overloaded, not Stats.Errors.
func TestMaxConnsAcceptBurst(t *testing.T) {
	const maxConns, burst = 4, 32
	hold := holdServer(t)
	r := startRelay(t, Config{Target: hold.Addr().String(), MaxConns: maxConns})

	var wg sync.WaitGroup
	conns := make([]net.Conn, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", r.Addr().String())
			if err == nil {
				conns[i] = c
			}
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()

	waitFor(t, func() bool {
		return r.Stats().Accepted.Load()+r.Stats().Overloaded.Load() == burst
	})
	st := r.Stats()
	if got := st.Accepted.Load(); got != maxConns {
		t.Errorf("accepted = %d, want exactly %d (cap overshot)", got, maxConns)
	}
	if got := st.Active.Load(); got > maxConns {
		t.Errorf("active = %d, want <= %d", got, maxConns)
	}
	if got := st.Overloaded.Load(); got != burst-maxConns {
		t.Errorf("overloaded = %d, want %d", got, burst-maxConns)
	}
	if got := st.Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (shedding is not an error)", got)
	}
}

// refuseDialer fails every dial with ECONNREFUSED (a transient error, so
// the retry schedule engages) and counts attempts.
type refuseDialer struct{ calls atomic.Int64 }

func (d *refuseDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	d.calls.Add(1)
	return nil, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
}

// stampDialer refuses every dial and records when each attempt began.
type stampDialer struct {
	mu    sync.Mutex
	times []time.Time
}

func (d *stampDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	d.mu.Lock()
	d.times = append(d.times, time.Now())
	d.mu.Unlock()
	return nil, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
}

// TestDialRetryBackoffSpacing: the first retry waits at least
// DialRetryBackoff and the next at least twice that, so the configured
// backoff, not the 50 ms default, spaces the schedule.
func TestDialRetryBackoffSpacing(t *testing.T) {
	d := &stampDialer{}
	r := startRelay(t, Config{Dialer: d, DialRetries: 2, DialRetryBackoff: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "CONNECT 127.0.0.1:1\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().Errors.Load() == 1 })
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.times) != 3 {
		t.Fatalf("%d dial attempts, want 3", len(d.times))
	}
	for i, want := range []time.Duration{150 * time.Millisecond, 300 * time.Millisecond} {
		if gap := d.times[i+1].Sub(d.times[i]); gap < want {
			t.Errorf("retry %d came %v after the last attempt, want at least %v", i+1, gap, want)
		}
	}
}

// TestIdleTimeoutSetting: an unset IdleTimeout takes the 5 min default,
// and a negative one disables the timeout (New stores 0, which pipe reads
// as no deadline).
func TestIdleTimeoutSetting(t *testing.T) {
	for _, c := range []struct{ set, want time.Duration }{
		{0, 5 * time.Minute},
		{-1, 0},
		{time.Second, time.Second},
	} {
		if got := startRelay(t, Config{IdleTimeout: c.set}).cfg.IdleTimeout; got != c.want {
			t.Errorf("IdleTimeout %v: New stored %v, want %v", c.set, got, c.want)
		}
	}
}

// TestDialRetryBackoffAbortsOnClose (regression): Close must interrupt a
// handler parked in dial-retry backoff. Pre-fix, dialUpstream slept with
// time.Sleep, so Close blocked on wg.Wait for the rest of the schedule
// (here several seconds).
func TestDialRetryBackoffAbortsOnClose(t *testing.T) {
	d := &refuseDialer{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, Config{
		Dialer:           d,
		DialRetries:      1000,
		DialRetryBackoff: 300 * time.Millisecond,
	})
	go r.Serve() //nolint:errcheck

	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "CONNECT 127.0.0.1:1\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().DialRetries.Load() >= 1 })

	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v; handler slept through its retry backoff", elapsed)
	}
}

// TestDialRetryAbortsWhenClientHangsUp (regression): a client that gives
// up mid-retry-schedule must release the relay goroutine and its MaxConns
// slot immediately, not after the remaining backoff (several seconds
// here).
func TestDialRetryAbortsWhenClientHangsUp(t *testing.T) {
	d := &refuseDialer{}
	r := startRelay(t, Config{
		Dialer:           d,
		DialRetries:      1000,
		DialRetryBackoff: 300 * time.Millisecond,
	})

	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "CONNECT 127.0.0.1:1\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().Active.Load() == 1 })
	waitFor(t, func() bool { return r.Stats().DialRetries.Load() >= 1 })

	// Hang up. The abort watcher must cancel the dial context and the
	// handler must release its slot well inside waitFor's 5 s budget.
	_ = conn.Close()
	waitFor(t, func() bool { return r.Stats().Active.Load() == 0 })
	attempts := d.calls.Load()
	time.Sleep(50 * time.Millisecond)
	if got := d.calls.Load(); got != attempts {
		t.Errorf("dial attempts kept coming after the client hung up: %d -> %d", attempts, got)
	}
}

// TestIdlePreconnectDoesNotBurnSlot (regression): a connected socket that
// has not yet sent its CONNECT preamble — a gateway's warm pool leg —
// must not consume a MaxConns slot, and must be tolerated until the
// relay's IdleTimeout (TestPreconnectDeadlineIsIdleTimeout pins how long).
func TestIdlePreconnectDoesNotBurnSlot(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{MaxConns: 1})

	// A warm, idle, pre-CONNECT socket...
	idle, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, func() bool { return r.Stats().Accepted.Load() == 1 })

	// ...must leave the single MaxConns slot free for a real flow, and
	// must itself survive a quiet spell (pre-fix the preamble read
	// deadline was the dial timeout, which would kill pooled sockets).
	time.Sleep(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatalf("real flow blocked by an idle pre-CONNECT socket: %v", err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "warm leg"); got != "warm leg" {
		t.Errorf("echo = %q", got)
	}

	// The idle socket is still usable: late preamble, same slot dance.
	_ = conn.Close()
	waitFor(t, func() bool { return r.Stats().Active.Load() == 0 })
	late, err := Connect(ctx, idle, echo.Addr().String())
	if err != nil {
		t.Fatalf("late CONNECT on the warm socket: %v", err)
	}
	if got := roundtrip(t, late, "late leg"); got != "late leg" {
		t.Errorf("echo = %q", got)
	}
}

// TestPreconnectDeadlineIsIdleTimeout (regression): the pre-CONNECT read
// deadline is the relay's IdleTimeout, not the 10 s dial timeout. A warm
// socket quiet for half the IdleTimeout still takes a late CONNECT, and
// one that never sends a preamble is closed soon after the IdleTimeout.
func TestPreconnectDeadlineIsIdleTimeout(t *testing.T) {
	const idleTimeout = time.Second
	echo := echoServer(t)
	r := startRelay(t, Config{IdleTimeout: idleTimeout})

	quiet, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	untouched, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer untouched.Close()
	opened := time.Now()

	time.Sleep(idleTimeout / 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	late, err := Connect(ctx, quiet, echo.Addr().String())
	if err != nil {
		t.Fatalf("late CONNECT %v into a %v IdleTimeout: %v", time.Since(opened), idleTimeout, err)
	}
	if got := roundtrip(t, late, "late leg"); got != "late leg" {
		t.Errorf("echo = %q", got)
	}

	_ = untouched.SetReadDeadline(opened.Add(3 * time.Second))
	_, err = untouched.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("untouched pre-CONNECT socket still open %v after it connected (IdleTimeout %v): read err %v",
			time.Since(opened), idleTimeout, err)
	}
}

// TestIdleRelayedConnsHoldSmallBuffers: a relayed connection that has
// carried only small messages holds one smallest-class pool buffer per
// direction, not two 256 KiB (BufferBytes) ones.
func TestIdleRelayedConnsHoldSmallBuffers(t *testing.T) {
	const flows, smallest = 8, 4 << 10 // smallest: pipe's smallest size class
	echo := echoServer(t)
	r := startRelay(t, Config{})
	base := pipe.Stats().BytesInUse
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conns := make([]net.Conn, flows)
	for i := range conns {
		conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The echo came back, so both of this flow's directions hold
		// their buffer.
		if got := roundtrip(t, conn, "small"); got != "small" {
			t.Fatalf("echo = %q", got)
		}
		conns[i] = conn
	}
	if got, want := pipe.Stats().BytesInUse-base, int64(flows*2*smallest); got != want {
		t.Errorf("%d idle relayed conns hold %d pool bytes, want %d (%d x 2 x %d)",
			flows, got, want, flows, smallest)
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	waitFor(t, func() bool { return pipe.Stats().BytesInUse == base })
}

// liveHeap returns the heap bytes still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestConnectEventRetainsTarget: the connect event of a traced CONNECT
// keeps a copy of its 15 B target, not the 76 B request line the target
// was parsed from. Each flow leaves two events in the relay's ring, and
// overwriting them frees what their details held: the target and
// "ok <target>" (16 + 24 B size classes), not the line.
func TestConnectEventRetainsTarget(t *testing.T) {
	const flows, maxPerFlow = 400, 64
	echo := echoServer(t)
	reg := obs.NewRegistry()
	r := startRelay(t, Config{Obs: reg})
	ctx := flowtrace.NewGoContext(context.Background(),
		flowtrace.Context{Trace: flowtrace.TraceID{1, 2, 3}, Span: 42, Sampled: true})
	target := echo.Addr().String()
	base := runtime.NumGoroutine()
	for i := 0; i < flows; i++ {
		conn, err := dialVia(ctx, r.Addr().String(), target)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	// Wait for the flows' relay and echo goroutines to exit, so that
	// none of them frees its buffers between the two readings below.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
	var connects int
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventConnect && e.Detail == target {
			connects++
		}
	}
	if connects != flows {
		t.Fatalf("ring holds %d connect events for %s, want %d", connects, target, flows)
	}
	// Let closed sockets' finalizers run, so the two readings below
	// differ only by what the ring lets go of.
	for i := 0; i < 3; i++ {
		liveHeap()
		time.Sleep(10 * time.Millisecond)
	}
	held := liveHeap()
	fill := reg.Scope("fill")
	for i := 0; i < obs.DefaultEventCapacity; i++ {
		fill.Event(obs.EventDial, "fill")
	}
	perFlow := (int64(held) - int64(liveHeap())) / flows
	if perFlow > maxPerFlow {
		t.Fatalf("the events of a traced flow to %s retain %d B, want at most %d B", target, perFlow, maxPerFlow)
	}
	t.Logf("the events of a traced flow to %s retain %d B", target, perFlow)
}

// TestPreconnectEOFIsNotAnError: a warm socket closed before sending any
// preamble is normal pool churn and must not count as a relay error.
func TestPreconnectEOFIsNotAnError(t *testing.T) {
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().Accepted.Load() == 1 })
	_ = conn.Close()
	time.Sleep(50 * time.Millisecond)
	if got := r.Stats().Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (pre-preamble EOF is pool churn)", got)
	}
}

// TestConnectModeOverloadAtPreamble: with the MaxConns reservation
// deferred to preamble arrival, an over-capacity CONNECT is refused with
// ERR overloaded and counted in Stats.Overloaded.
func TestConnectModeOverloadAtPreamble(t *testing.T) {
	hold := holdServer(t)
	r := startRelay(t, Config{MaxConns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	first, err := dialVia(ctx, r.Addr().String(), hold.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = dialVia(ctx, r.Addr().String(), hold.Addr().String())
	if err == nil {
		t.Fatal("second CONNECT succeeded past MaxConns=1")
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Errorf("err = %v, want ERR overloaded refusal", err)
	}
	// The handler counts the refusal after writing the ERR reply.
	waitFor(t, func() bool { return r.Stats().Overloaded.Load() == 1 })
	if got := r.Stats().Overloaded.Load(); got != 1 {
		t.Errorf("overloaded = %d, want 1", got)
	}
	if got := r.Stats().Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (shedding is not an error)", got)
	}
}
