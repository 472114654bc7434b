package gateway

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"cronets/internal/pipe"
	"cronets/internal/servertest"
)

// streamServer accepts connections and writes to each until it fails: a
// bulk download that never ends on its own.
func streamServer(t *testing.T) net.Addr {
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
				chunk := make([]byte, 64<<10)
				for {
					if _, err := c.Write(chunk); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr()
}

// TestCloseWithSplicedFlows: Close with listener flows whose downloads
// are spliced in the kernel gives back every goroutine and descriptor,
// the splice pipes included.
func TestCloseWithSplicedFlows(t *testing.T) {
	dest := streamServer(t)
	check := servertest.CheckLeaks(t)
	g, err := New(Config{Dest: dest.String(), BufferBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Serve(ln) }()

	spliced := pipe.Stats().Spliced
	var clients []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, conn)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pipe.Stats().Spliced-spliced < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Spliced rose by %d, want 2", pipe.Stats().Spliced-spliced)
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := g.Close(); err != nil {
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
