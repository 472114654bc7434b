package relay

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cronets/internal/flowtrace"
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

func TestConnectModeDialFailure(t *testing.T) {
	r := startRelay(t, Config{DialTimeout: time.Second})
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

func TestConnectModePipelinedData(t *testing.T) {
	// Data written immediately after the CONNECT line must not be lost.
	echo := echoServer(t)
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "CONNECT %s\nearly", echo.Addr().String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("handshake: %q, %v", line, err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "early" {
		t.Errorf("pipelined data = %q", buf)
	}
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
// must not consume a MaxConns slot, and must be tolerated for longer than
// DialTimeout.
func TestIdlePreconnectDoesNotBurnSlot(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{MaxConns: 1, DialTimeout: 200 * time.Millisecond})

	// A warm, idle, pre-CONNECT socket...
	idle, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, func() bool { return r.Stats().Accepted.Load() == 1 })

	// ...must leave the single MaxConns slot free for a real flow, and
	// must itself survive past DialTimeout (pre-fix the preamble read
	// deadline was DialTimeout, which would kill pooled sockets).
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
