package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cronets/internal/measure"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
	"cronets/internal/servertest"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t testing.TB) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
				if tc, ok := c.(*net.TCPConn); ok {
					_ = tc.CloseWrite()
				}
			}()
		}
	}()
	return ln.Addr()
}

func liveRelay(t testing.TB) *relay.Relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(ln, relay.Config{})
	go func() { _ = r.Serve() }()
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestDialDirectWithoutMonitor(t *testing.T) {
	dest := echoServer(t)
	g, err := New(Config{Dest: dest.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, path, err := g.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !path.IsDirect() {
		t.Fatalf("path = %v, want direct", path)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	if g.Stats().DialsDirect.Load() != 1 {
		t.Fatalf("DialsDirect = %d, want 1", g.Stats().DialsDirect.Load())
	}
}

func TestDialFollowsMonitorBestPath(t *testing.T) {
	destSrvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	destSrv := measure.NewServer(destSrvLn)
	go func() { _ = destSrv.Serve() }()
	defer destSrv.Close()
	dest := destSrvLn.Addr().String()

	rl := liveRelay(t)
	mon, err := pathmon.New(pathmon.Config{
		Dest:  dest,
		Fleet: []string{rl.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(rl.Addr().String()))

	g, err := New(Config{Dest: dest, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, path, err := g.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if path.IsDirect() {
		t.Fatal("dialed direct; monitor's best path is the relay")
	}
	if got := rl.Stats().Accepted.Load(); got != 1 {
		t.Fatalf("relay accepted %d connections, want 1", got)
	}
	// The relayed connection reaches a live measure server: probe it.
	if _, err := measure.ProbeRTTContext(context.Background(), conn, 2, nil); err != nil {
		t.Fatalf("probe through gateway-dialed relay path: %v", err)
	}
}

func TestDialFallsBackWhenBestPathDead(t *testing.T) {
	destSrvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	destSrv := measure.NewServer(destSrvLn)
	go func() { _ = destSrv.Serve() }()
	defer destSrv.Close()
	dest := destSrvLn.Addr().String()

	deadRelay := "127.0.0.1:1"
	mon, err := pathmon.New(pathmon.Config{Dest: dest, Fleet: []string{deadRelay}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(deadRelay))

	reg := obs.NewRegistry()
	g, err := New(Config{Dest: dest, Monitor: mon, DialTimeout: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, path, err := g.Dial(context.Background())
	if err != nil {
		t.Fatalf("Dial with a dead best path must fall back: %v", err)
	}
	defer conn.Close()
	if !path.IsDirect() {
		t.Fatalf("fallback path = %v, want direct", path)
	}
	if g.Stats().Fallbacks.Load() != 1 {
		t.Fatalf("Fallbacks = %d, want 1", g.Stats().Fallbacks.Load())
	}
	var sawFallback bool
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatal("no fallback flow event recorded")
	}
}

func TestServeListenerMode(t *testing.T) {
	dest := echoServer(t)
	g, err := New(Config{Dest: dest.String()})
	if err != nil {
		t.Fatal(err)
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Serve(gwLn) }()

	payload := bytes.Repeat([]byte("overlay"), 1000)
	conn, err := net.Dial("tcp", gwLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("echoed %d bytes through gateway, want %d", len(got), len(payload))
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
	st := g.Stats()
	if st.Accepted.Load() != 1 || st.BytesUp.Load() != int64(len(payload)) {
		t.Fatalf("stats: accepted=%d bytes_up=%d", st.Accepted.Load(), st.BytesUp.Load())
	}
}

func TestDialAllPathsDead(t *testing.T) {
	g, err := New(Config{Dest: "127.0.0.1:1", DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, _, err := g.Dial(context.Background()); err == nil {
		t.Fatal("Dial succeeded with no live path")
	}
	if g.Stats().DialFailures.Load() != 1 {
		t.Fatalf("DialFailures = %d, want 1", g.Stats().DialFailures.Load())
	}
}

// TestIdleTimeoutClosesDeadFlow: a listener-mode flow with a silent peer
// is torn down by the idle timeout instead of holding the gateway slot
// forever, and the flow-duration histogram records the finished flow.
func TestIdleTimeoutClosesDeadFlow(t *testing.T) {
	dest := echoServer(t)
	reg := obs.NewRegistry()
	g, err := New(Config{
		Dest:        dest.String(),
		IdleTimeout: 100 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Write once so the flow establishes, then go silent.
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Active.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := g.Stats().Active.Load(); got != 0 {
		t.Fatalf("idle flow still active after timeout: Active = %d", got)
	}
	if g.flowDur.Count() == 0 {
		t.Error("flow-duration histogram recorded no samples")
	}
	if up := g.Stats().BytesUp.Load(); up != 5 {
		t.Errorf("BytesUp = %d, want 5", up)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
}

// TestServeRetriesTemporaryAcceptErrors: transient Accept failures must
// not kill the gateway — Serve backs off, retries, counts them, and the
// flow that arrives after the burst is served normally. Pre-fix, the
// first temporary error returned from Serve and the gateway went dark.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	dest := echoServer(t)
	g, err := New(Config{Dest: dest.String()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const bursts = 3
	done := make(chan error, 1)
	go func() { done <- g.Serve(servertest.EMFILEListener(ln, bursts)) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo after accept-error burst = %q, %v", buf, err)
	}
	_ = conn.Close()

	if got := g.Stats().AcceptErrors.Load(); got != bursts {
		t.Errorf("AcceptErrors = %d, want %d", got, bursts)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
}

// TestDialDirectStaysInsideAttemptCap: with a committed (dead) relay best
// path and MaxAttempts small enough that truncation kicks in, the direct
// last resort must survive the cut. Pre-fix, cands[:MaxAttempts] sliced
// direct off and the dial failed outright.
func TestDialDirectStaysInsideAttemptCap(t *testing.T) {
	dest := echoServer(t)
	deadRelay := "127.0.0.1:1"
	mon, err := pathmon.New(pathmon.Config{Dest: dest.String(), Fleet: []string{deadRelay}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(deadRelay))

	g, err := New(Config{
		Dest:        dest.String(),
		Monitor:     mon,
		MaxAttempts: 1,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, path, err := g.Dial(context.Background())
	if err != nil {
		t.Fatalf("Dial must keep direct inside the attempt cap: %v", err)
	}
	defer conn.Close()
	if !path.IsDirect() {
		t.Fatalf("path = %v, want direct", path)
	}
}

// stallDialer dials normally for its first dials, then parks each
// further dial until its context ends (a destination whose SYNs go
// unanswered), signalling stalled.
type stallDialer struct {
	passes  atomic.Int32 // dials left to pass through
	stalled chan struct{}
}

func (d *stallDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if d.passes.Add(-1) >= 0 {
		var nd net.Dialer
		return nd.DialContext(ctx, network, addr)
	}
	d.stalled <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCloseAbortsDialInFlight: Close with two live flows and a third
// still dialing returns at once — it cancels the dial instead of waiting
// out DialTimeout (10 s) — and gives back every goroutine and socket.
func TestCloseAbortsDialInFlight(t *testing.T) {
	dest := echoServer(t)
	check := servertest.CheckLeaks(t)
	d := &stallDialer{stalled: make(chan struct{}, 1)}
	d.passes.Store(2)
	g, err := New(Config{Dest: dest.String(), Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Serve(ln) }()

	var clients []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, conn)
		if i == 2 {
			break
		}
		buf := []byte("live")
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("echo on flow %d: %v", i, err)
		}
	}
	select {
	case <-d.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("third flow never dialed")
	}

	start := time.Now()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a dial in flight, want < 1 s", took)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
	for _, c := range clients {
		_ = c.Close()
	}
	check()
}

// TestServeAfterCloseClosesListener: Serve on a closed gateway returns
// pipe.ErrServerClosed and, like net/http.Server.Serve, closes the listener it
// was handed instead of leaking it.
func TestServeAfterCloseClosesListener(t *testing.T) {
	g, err := New(Config{Dest: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := g.Serve(ln); !errors.Is(err, pipe.ErrServerClosed) {
		t.Fatalf("Serve after Close = %v, want pipe.ErrServerClosed", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on the served listener = %v, want net.ErrClosed", err)
	}
}

// TestDialUsesWarmPool: with pooling on, a relay dial rides a
// pre-established pooled socket — the relay sees no new TCP connection at
// dial time, and the dial is attributed to the pooled counter.
func TestDialUsesWarmPool(t *testing.T) {
	dest := echoServer(t)
	rl := liveRelay(t)
	mon, err := pathmon.New(pathmon.Config{
		Dest:  dest.String(),
		Fleet: []string{rl.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(rl.Addr().String()))

	g, err := New(Config{
		Dest:             dest.String(),
		Monitor:          mon,
		PoolSize:         2,
		PoolFillInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Pool() == nil {
		t.Fatal("pool not created with PoolSize > 0")
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Pool().Idle(rl.Addr().String()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.Pool().Idle(rl.Addr().String()); got < 2 {
		t.Fatalf("pool warmed %d conns, want 2", got)
	}

	conn, path, err := g.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if path.IsDirect() {
		t.Fatal("dial went direct; pinned best is the relay")
	}
	if got := g.Stats().DialsRelayPooled.Load(); got != 1 {
		t.Fatalf("DialsRelayPooled = %d, want 1", got)
	}
	if got := g.Stats().DialsRelayCold.Load(); got != 0 {
		t.Fatalf("DialsRelayCold = %d, want 0", got)
	}
	// The pooled leg really reaches the destination.
	if _, err := conn.Write([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "warm" {
		t.Fatalf("echo over pooled leg = %q, %v", buf, err)
	}
}
