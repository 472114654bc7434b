package pipe

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"cronets/internal/servertest"
)

// TestServerCloseWithLiveFlows: admit drops the connection it refuses;
// Close cancels the context, closes the live flows and the upstream legs
// their handlers tracked, and gives back every goroutine and socket.
func TestServerCloseWithLiveFlows(t *testing.T) {
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var s Server
	var admitted int
	echo := func(c net.Conn) {
		// A tracked upstream leg stands in for the relay's dialed target.
		up, far := net.Pipe()
		defer far.Close()
		if !s.Track(up) {
			return
		}
		defer s.Untrack(up)
		_, _ = io.Copy(c, c)
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Serve(ln, func(net.Conn) func(net.Conn) {
			admitted++
			if admitted == 1 {
				return nil // refuse the first connection
			}
			return echo
		})
	}()

	var clients []net.Conn
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		if i == 0 {
			if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("refused connection read %v, want EOF", err)
			}
			continue
		}
		buf := []byte("live")
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("echo on flow %d: %v", i, err)
		}
	}

	ctx := s.Context()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil {
		t.Error("Close did not cancel the server context")
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	for i, c := range clients[1:] {
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("live flow %d read %v after Close, want EOF", i+1, err)
		}
	}
	for _, c := range clients {
		_ = c.Close()
	}
	check()
}

// TestTrackAfterCloseClosesConn: a conn that loses the race with Close —
// accepted or dialed after the shutdown sweep ran — must be closed by
// Track instead of silently registered, where it would dangle past
// Close's Wait with nothing left to reap it.
func TestTrackAfterCloseClosesConn(t *testing.T) {
	var s Server
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	local, remote := net.Pipe()
	defer remote.Close()
	if s.Track(local) {
		t.Fatal("Track registered a conn after Close")
	}
	// Track must have closed the conn: the peer sees EOF promptly.
	_ = remote.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := remote.Read(make([]byte, 1)); err == nil {
		t.Fatal("conn tracked after Close was left open")
	}
}
