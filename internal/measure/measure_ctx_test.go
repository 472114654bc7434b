package measure

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"cronets/internal/netem"
)

// blackholedServer starts a measure server behind a netem proxy whose
// fault plan blackholes every connection on connect: bytes go in, nothing
// ever comes out, and neither socket closes — the hung-peer scenario that
// would otherwise block a probe forever.
func blackholedServer(t *testing.T) net.Addr {
	t.Helper()
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(srvLn)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })

	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := netem.New(proxyLn, srvLn.Addr().String(), netem.Config{
		Faults: netem.FaultPlan{Rules: []netem.FaultRule{
			{Conn: -1, Dir: netem.DirBoth, Action: netem.FaultBlackhole},
		}},
	})
	go func() { _ = proxy.Serve() }()
	t.Cleanup(func() { _ = proxy.Close() })
	return proxy.Addr()
}

func TestProbeRTTContextBlackholeTimeout(t *testing.T) {
	addr := blackholedServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ProbeRTTContext(ctx, conn, 3, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ProbeRTTContext succeeded through a blackholed path")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("probe took %v through a blackhole; want prompt timeout", elapsed)
	}
}

func TestThroughputContextBlackholeTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("blackhole-drain test is skipped in -short mode")
	}
	addr := blackholedServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The blackhole never drains, so the kernel buffers fill and writes
	// block; the context must unblock them.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Throughput(ctx, conn, 5*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Throughput succeeded through a blackholed path")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrTruncatedBurst) {
		t.Fatalf("error = %v, want context.DeadlineExceeded and ErrTruncatedBurst", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("throughput took %v through a blackhole; want prompt timeout", elapsed)
	}
}

func TestProbeRTTContextCancel(t *testing.T) {
	addr := blackholedServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := ProbeRTTContext(ctx, conn, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestProbeRTTContextHealthyPath(t *testing.T) {
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(srvLn)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	conn, err := net.Dial("tcp", srvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats, err := ProbeRTTContext(ctx, conn, 5, nil)
	if err != nil {
		t.Fatalf("ProbeRTTContext on a healthy path: %v", err)
	}
	if stats.Samples != 5 {
		t.Fatalf("samples = %d, want 5", stats.Samples)
	}
}

// TestProbeRTTContextClearsDeadline: a probe run leaves no deadline on the
// connection, so the connection outlives the context that bounded it
// (cronets-measure trace probes one connection twice).
func TestProbeRTTContextClearsDeadline(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := ProbeRTTContext(ctx, conn, 1, nil); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	if _, err := ProbeRTTContext(context.Background(), conn, 1, nil); err != nil {
		t.Fatalf("probe after the first context expired: %v", err)
	}
}
