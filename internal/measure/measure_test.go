package measure

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"cronets/internal/pipe"
	"cronets/internal/servertest"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln)
	go s.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestThroughputSink(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := Throughput(context.Background(), conn, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps <= 0 || res.Bytes <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Elapsed < 200*time.Millisecond {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
}

func TestProbeRTT(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stats, err := ProbeRTTContext(context.Background(), conn, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 5 {
		t.Errorf("samples = %d", stats.Samples)
	}
	if stats.Min <= 0 || stats.Avg < stats.Min || stats.Max < stats.Avg {
		t.Errorf("ordering broken: %+v", stats)
	}
	// Loopback RTT should be far below a millisecond-scale bound.
	if stats.Avg > 100*time.Millisecond {
		t.Errorf("loopback RTT = %v", stats.Avg)
	}
}

func TestProbeRTTDefaultCount(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stats, err := ProbeRTTContext(context.Background(), conn, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 10 {
		t.Errorf("default samples = %d, want 10", stats.Samples)
	}
}

// TestEchoHoldsNoPoolBuffer: an open echo session takes no buffer from
// the pool, whose smallest class is 4 KiB, to carry its 16 B frames.
func TestEchoHoldsNoPoolBuffer(t *testing.T) {
	s := startServer(t)
	base := pipe.Stats().BytesInUse
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The first probe's echo proves the server is in its echo loop.
	if _, err := ProbeRTTContext(context.Background(), conn, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := pipe.Stats().BytesInUse - base; got != 0 {
		t.Fatalf("an open echo session holds %d pool bytes, want 0", got)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, pipe.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestServeSurvivesEMFILE: accept failing with EMFILE (the process is
// out of file descriptors) must not end Serve, and Close with live echo
// and sink flows gives back every goroutine and socket.
func TestServeSurvivesEMFILE(t *testing.T) {
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(servertest.EMFILEListener(ln, 3))
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	echo, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProbeRTTContext(ctx, echo, 3, nil); err != nil {
		t.Fatal(err)
	}
	sink, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Write([]byte{modeSink, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
	_ = echo.Close()
	_ = sink.Close()
	check()
}

func TestUnknownModeIgnored(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'?'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("unknown mode should close the connection")
	}
}

// TestThroughputBurstFullWindow: a healthy path yields a full-duration
// measurement.
func TestThroughputBurstFullWindow(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := Throughput(ctx, conn, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 150*time.Millisecond || res.Mbps <= 0 {
		t.Errorf("burst result = %+v, want a full >=150ms window with positive Mbps", res)
	}
}

// TestThroughputBurstTruncatedIsError: a deadline that expires inside the
// measurement window must yield ErrTruncatedBurst, never an Mbps number
// measured over a shorter interval than configured.
func TestThroughputBurstTruncatedIsError(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := Throughput(ctx, conn, 10*time.Second)
	if !errors.Is(err, ErrTruncatedBurst) {
		t.Fatalf("err = %v (result %+v), want ErrTruncatedBurst", err, res)
	}
	if res.Mbps != 0 {
		t.Errorf("truncated burst still reported Mbps = %v", res.Mbps)
	}
}
