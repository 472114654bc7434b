//go:build linux && !race

// The race runtime allocates on its own schedule, so this file's
// allocation counts are checked only without -race.

package pipe

import (
	"context"
	"net"
	"testing"
)

// TestSpliceAllocs: once a direction splices, no chunk allocates, so an
// 8 MiB flow allocates the same as a 1 MiB one. Each flow carries its
// bytes up, then down, so the two directions end in the same order every
// time: a half-close that finds its socket already shut allocates an
// error, and that must not depend on timing.
func TestSpliceAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Not tcpRelayPair: its per-call t.Cleanup would allocate inside the
	// measured flow.
	pair := func() (dialed, accepted net.Conn) {
		dialed, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if accepted, err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		return dialed, accepted
	}
	// send writes size bytes and half-closes; drain reads to EOF.
	chunk := make([]byte, 64<<10)
	sink := make([]byte, 64<<10)
	send := func(c net.Conn, size int) {
		for sent := 0; sent < size; sent += len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
		_ = c.(*net.TCPConn).CloseWrite()
	}
	drain := func(c net.Conn) {
		for {
			if _, err := c.Read(sink); err != nil {
				return
			}
		}
	}
	flowAllocs := func(size int) float64 {
		spliced := Stats().Spliced
		allocs := testing.AllocsPerRun(5, func() {
			client, down := pair()
			up, server := pair()
			done := make(chan struct{})
			go func() {
				_, _ = Bidirectional(context.Background(), down, up, Options{BufferBytes: 256 << 10})
				close(done)
			}()
			served := make(chan struct{})
			go func() {
				drain(server)
				send(server, size)
				close(served)
			}()
			send(client, size)
			drain(client)
			<-done
			<-served
			for _, c := range []net.Conn{client, server, down, up} {
				_ = c.Close()
			}
		})
		// AllocsPerRun runs the flow once more to warm up.
		if got := Stats().Spliced - spliced; got != 2*6 {
			t.Errorf("%d-byte flows spliced %d directions, want %d", size, got, 2*6)
		}
		return allocs
	}
	small, large := flowAllocs(1<<20), flowAllocs(8<<20)
	if large != small {
		t.Errorf("an 8 MiB flow allocates %.0f times, a 1 MiB flow %.0f: a chunk allocates", large, small)
	}
}
