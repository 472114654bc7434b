package relay

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/pipe"
	"cronets/internal/servertest"
)

// streamServer accepts connections and writes to each until it fails: a
// bulk download that never ends on its own.
func streamServer(t *testing.T) net.Listener {
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
				chunk := make([]byte, 64<<10)
				for {
					if _, err := conn.Write(chunk); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// TestCloseWithSplicedFlows: Close with bulk downloads spliced in the
// kernel returns at once and gives back every goroutine and descriptor,
// the splice pipes included.
func TestCloseWithSplicedFlows(t *testing.T) {
	src := streamServer(t)
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, Config{})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spliced := pipe.Stats().Spliced
	var clients []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := dialVia(ctx, r.Addr().String(), src.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, conn)
		if _, err := io.ReadFull(conn, make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return pipe.Stats().Spliced-spliced >= 2 })

	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with spliced flows, want < 1 s", took)
	}
	if err := <-done; !errors.Is(err, pipe.ErrServerClosed) {
		t.Errorf("Serve returned %v, want pipe.ErrServerClosed", err)
	}
	for i, c := range clients {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("client %d still open after Close", i)
		}
		_ = c.Close()
	}
	check()
}

// TestPipelinedFlowSplices: a client that sends a bulk payload in the same
// write as its CONNECT line, without waiting for OK, still has both
// directions of its flow spliced in the kernel.
func TestPipelinedFlowSplices(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{})
	spliced := pipe.Stats().Spliced
	payload := seededPayload(1 << 20)
	got := pipelinedEcho(t, r.Addr().String(), echo.Addr().String(), flowtrace.Context{}, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("pipelined payload came back different")
	}
	waitFor(t, func() bool { return r.Stats().Active.Load() == 0 })
	if n := pipe.Stats().Spliced - spliced; n != 2 {
		t.Errorf("pipelined flow spliced %d directions, want 2", n)
	}
}
