//go:build linux

package pipe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestBulkSplices: an 8 MiB echo between two plain TCP conns without a
// Hook comes back byte-identical, through two bulk directions that each
// switch to splice(2) and give their buffer back to the pool. Result and
// the live counters count every byte delivered.
func TestBulkSplices(t *testing.T) {
	const bufBytes = 256 << 10
	echo := echoAccept(t)
	before := Stats()
	var up, down atomic.Int64
	addr, done, errc := startSplice(t, echo.Addr().String(), Options{
		BufferBytes: bufBytes,
		CountAToB:   &up,
		CountBToA:   &down,
	})
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		_, _ = conn.Write(payload)
		_ = conn.(*net.TCPConn).CloseWrite()
	}()

	// Read the echo, and once both directions have switched, see what
	// the flow holds of the pool while it is still moving bytes.
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 64<<10)
	held := int64(-1)
	for {
		n, err := conn.Read(buf)
		got = append(got, buf[:n]...)
		if held < 0 && Stats().Spliced-before.Spliced == 2 {
			held = Stats().BytesInUse - before.BytesInUse
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo of %d bytes differs from the %d sent", len(got), len(payload))
	}
	res := <-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	want := int64(len(payload))
	if res.AToB != want || res.BToA != want {
		t.Errorf("Result AToB=%d BToA=%d, want %d both", res.AToB, res.BToA, want)
	}
	if up.Load() != want || down.Load() != want {
		t.Errorf("counters up=%d down=%d, want %d both", up.Load(), down.Load(), want)
	}
	after := Stats()
	if got := after.Spliced - before.Spliced; got != 2 {
		t.Errorf("Spliced rose by %d, want 2 (one per bulk direction)", got)
	}
	if got := after.SpliceFallbacks - before.SpliceFallbacks; got != 0 {
		t.Errorf("SpliceFallbacks rose by %d, want 0", got)
	}
	switch {
	case held < 0:
		t.Error("the flow ended before both directions switched to splice")
	case held != 0:
		t.Errorf("spliced flow holds %d pool bytes, want 0", held)
	}
	if got := after.BytesInUse - before.BytesInUse; got != 0 {
		t.Errorf("%d pool bytes still in use after the flow ended", got)
	}
}

// TestSpliceHalfClose: the client ends a bulk upload with CloseWrite, the
// far side reads it to EOF and only then sends a bulk reply, and the
// reply drains in full through the spliced directions.
func TestSpliceHalfClose(t *testing.T) {
	const upBytes, downBytes = 1 << 20, 4 << 20
	reply := make([]byte, downBytes)
	rand.New(rand.NewSource(2)).Read(reply)
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	uploaded := make(chan int64, 1)
	go func() {
		c, err := srv.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		uploaded <- n
		_, _ = c.Write(reply)
	}()

	before := Stats()
	addr, done, errc := startSplice(t, srv.Addr().String(), Options{BufferBytes: 256 << 10})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, upBytes)); err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-uploaded; n != upBytes {
		t.Errorf("server read %d bytes before EOF, want %d", n, upBytes)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("reply of %d bytes differs from the %d sent", len(got), len(reply))
	}
	res := <-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	if res.AToB != upBytes || res.BToA != downBytes {
		t.Errorf("Result AToB=%d BToA=%d, want %d and %d", res.AToB, res.BToA, upBytes, downBytes)
	}
	if got := Stats().Spliced - before.Spliced; got != 2 {
		t.Errorf("Spliced rose by %d, want 2", got)
	}
}

// TestSpliceTeardown: an idle timeout, a context cancel and a peer that
// resets mid-transfer each end a spliced direction and close both conns,
// and Bidirectional classifies each the way it does for a direction on a
// user buffer (a pass-through Hook keeps one).
func TestSpliceTeardown(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		// bulkDown: the server streams 8 MiB down and the client reads
		// 64 KiB of it; otherwise the client sends 64 KiB up and both
		// sides then go quiet.
		bulkDown bool
		// end runs once the bulk direction has switched; it owns the
		// client side.
		end       func(client net.Conn, cancel context.CancelFunc)
		wantIdle  bool
		wantReset bool // a hard error (the peer's reset), not a clean end
	}{
		{
			name:     "idle timeout",
			opts:     Options{IdleTimeout: 200 * time.Millisecond},
			end:      func(net.Conn, context.CancelFunc) {},
			wantIdle: true,
		},
		{
			name: "context cancel",
			end:  func(_ net.Conn, cancel context.CancelFunc) { cancel() },
		},
		{
			name:     "peer reset",
			bulkDown: true,
			end: func(client net.Conn, _ context.CancelFunc) {
				_ = client.(*net.TCPConn).SetLinger(0)
				_ = client.Close()
			},
			wantReset: true,
		},
	}
	for _, c := range cases {
		for _, path := range []string{"spliced", "user buffer"} {
			t.Run(c.name+"/"+path, func(t *testing.T) {
				opts := c.opts
				opts.BufferBytes = 256 << 10
				if path == "user buffer" {
					opts.Hook = passThrough
				}
				before := Stats()
				client, server, down, up := tcpRelayPair(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				type outcome struct {
					res Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := Bidirectional(ctx, down, up, opts)
					done <- outcome{res, err}
				}()

				src, dst := client, server
				if c.bulkDown {
					src, dst = server, client
					go func() {
						chunk := make([]byte, 64<<10)
						for {
							if _, err := server.Write(chunk); err != nil {
								return
							}
						}
					}()
				} else if _, err := client.Write(make([]byte, 64<<10)); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(dst, make([]byte, 64<<10)); err != nil {
					t.Fatalf("read %v's bulk: %v", src.LocalAddr(), err)
				}
				if opts.Hook == nil {
					waitSpliced(t, before.Spliced+1)
				}
				c.end(client, cancel)

				var out outcome
				select {
				case out = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("splice did not finish")
				}
				if out.res.IdleClosed != c.wantIdle {
					t.Errorf("IdleClosed = %v, want %v", out.res.IdleClosed, c.wantIdle)
				}
				reset := errors.Is(out.err, syscall.ECONNRESET) || errors.Is(out.err, syscall.EPIPE)
				if c.wantReset != reset || (!c.wantReset && out.err != nil) {
					t.Errorf("Bidirectional = %v, want reset %v", out.err, c.wantReset)
				}
				// Both conns are closed: each far end still open reads
				// to an end rather than to its deadline.
				ends := []net.Conn{server}
				if !c.wantReset {
					ends = append(ends, client)
				}
				for _, end := range ends {
					_ = end.SetReadDeadline(time.Now().Add(5 * time.Second))
					if _, err := io.Copy(io.Discard, end); errors.Is(err, os.ErrDeadlineExceeded) {
						t.Errorf("%v's peer still open after the splice ended", end.LocalAddr())
					}
				}
				if opts.Hook != nil && Stats().Spliced != before.Spliced {
					t.Errorf("hooked flow raised Spliced by %d", Stats().Spliced-before.Spliced)
				}
			})
		}
	}
}

func passThrough(_ Dir, chunk []byte, write WriteFunc) error { return write(chunk) }

// tcpRelayPair makes two loopback TCP pairs: client↔down and up↔server,
// for a test to splice down and up together. All four close at cleanup.
func tcpRelayPair(t *testing.T) (client, server, down, up net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pair := func() (dialed, accepted net.Conn) {
		dialed, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		accepted, err = ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return dialed, accepted
	}
	client, down = pair()
	up, server = pair()
	t.Cleanup(func() {
		for _, c := range []net.Conn{client, server, down, up} {
			_ = c.Close()
		}
	})
	return client, server, down, up
}

// waitSpliced waits for pipe's Spliced count to reach want.
func waitSpliced(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for Stats().Spliced < want {
		if time.Now().After(deadline) {
			t.Fatalf("Spliced = %d, want %d", Stats().Spliced, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUserBufferPaths: a hooked flow and a flow whose downstream conn is
// wrapped by WithReader carry a bulk echo on user buffers and never raise
// Spliced.
func TestUserBufferPaths(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	cases := []struct {
		name string
		opts Options
		wrap func(net.Conn) net.Conn
	}{
		{
			name: "hook",
			opts: Options{Hook: passThrough},
			wrap: func(c net.Conn) net.Conn { return c },
		},
		{
			name: "WithReader",
			wrap: func(c net.Conn) net.Conn { return WithReader(c, c) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.opts.BufferBytes = 256 << 10
			before := Stats()
			client, server, down, up := tcpRelayPair(t)
			done := make(chan error, 1)
			go func() {
				_, err := Bidirectional(context.Background(), c.wrap(down), up, c.opts)
				done <- err
			}()
			go func() {
				_, _ = io.Copy(server, server) // echo
				_ = server.(*net.TCPConn).CloseWrite()
			}()
			go func() {
				_, _ = client.Write(payload)
				_ = client.(*net.TCPConn).CloseWrite()
			}()
			got, err := io.ReadAll(client)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("echo of %d bytes differs from the %d sent", len(got), len(payload))
			}
			if err := <-done; err != nil {
				t.Fatalf("Bidirectional: %v", err)
			}
			if got := Stats().Spliced - before.Spliced; got != 0 {
				t.Errorf("Spliced rose by %d, want 0", got)
			}
		})
	}
}
