package pipe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestSmallFlowHoldsSmallestClass: a flow of 64-byte exchanges never
// fills a read, so each direction holds one smallest-class buffer for
// its whole life, however large BufferBytes is.
func TestSmallFlowHoldsSmallestClass(t *testing.T) {
	echo := echoAccept(t)
	base := Stats().BytesInUse
	addr, done, errc := startSplice(t, echo.Addr().String(), Options{BufferBytes: 256 << 10})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("x"), 64)
	reply := make([]byte, len(msg))
	want := int64(2 * classSizes[0])
	for i := 0; i < 100; i++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
		// The echo came back, so both directions hold their buffer.
		if got := Stats().BytesInUse - base; got != want {
			t.Fatalf("exchange %d: flow holds %d pool bytes, want %d (one %d-byte buffer per direction)",
				i, got, want, classSizes[0])
		}
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	if got := Stats().BytesInUse - base; got != 0 {
		t.Errorf("%d pool bytes still in use after the flow ended", got)
	}
}

// TestBulkGrowsToCap: an 8 MiB echo through a pipe capped at 256 KiB
// starts each direction on the smallest class, grows it to the cap, never
// hands the hook a chunk larger than the cap, and delivers every byte.
func TestBulkGrowsToCap(t *testing.T) {
	const capBytes = 256 << 10
	type seen struct {
		firstCap, maxLen int
		grown            bool
	}
	var dirs [2]seen // each direction's hook writes only its own entry
	echo := echoAccept(t)
	base := Stats().BytesInUse
	addr, done, errc := startSplice(t, echo.Addr().String(), Options{
		BufferBytes: capBytes,
		Hook: func(dir Dir, chunk []byte, write WriteFunc) error {
			s := &dirs[dir]
			if s.firstCap == 0 {
				s.firstCap = cap(chunk)
			}
			s.maxLen = max(s.maxLen, len(chunk))
			s.grown = s.grown || cap(chunk) == capBytes
			return write(chunk)
		},
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
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo of %d bytes differs from the %d sent", len(got), len(payload))
	}
	<-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	for dir, s := range dirs {
		if s.firstCap != classSizes[0] {
			t.Errorf("%v: first chunk came from a %d-byte buffer, want %d", Dir(dir), s.firstCap, classSizes[0])
		}
		if !s.grown {
			t.Errorf("%v: buffer never grew to %d bytes", Dir(dir), capBytes)
		}
		if s.maxLen <= classSizes[0] || s.maxLen > capBytes {
			t.Errorf("%v: largest chunk %d bytes, want in (%d, %d]", Dir(dir), s.maxLen, classSizes[0], capBytes)
		}
	}
	if got := Stats().BytesInUse - base; got != 0 {
		t.Errorf("%d pool bytes still in use after the flow ended", got)
	}
}

// TestBuffersReturnedOnEveryExit: whichever buffer a direction holds, the
// starting one or the one it grew into, goes back to the pool on every
// way a splice ends. net.Pipe hands a reader exactly what fits, so the
// client's 8 KiB write fills the up direction's first 4 KiB read and
// makes it grow: three Gets in all (up small, up grown, down small).
func TestBuffersReturnedOnEveryExit(t *testing.T) {
	bulk := make([]byte, 2*classSizes[0])
	cases := []struct {
		name string
		opts Options
		// serve is the server's side; end, if set, runs after it. Then
		// the splice must finish. wantUp is the bytes delivered up.
		serve  func(server net.Conn) error
		end    func(client, server net.Conn, cancel context.CancelFunc)
		wantUp int64
	}{
		{
			name:   "eof",
			serve:  readAll(len(bulk)),
			wantUp: int64(len(bulk)),
			end: func(client, server net.Conn, _ context.CancelFunc) {
				_ = client.Close()
				_ = server.Close()
			},
		},
		{
			// The server takes the first chunk and hangs up, so writing
			// the second, read into the grown buffer, fails.
			name: "write error after growth",
			serve: func(server net.Conn) error {
				err := readAll(classSizes[0])(server)
				_ = server.Close()
				return err
			},
			wantUp: int64(classSizes[0]),
		},
		{
			name:   "idle timeout",
			opts:   Options{IdleTimeout: 250 * time.Millisecond},
			serve:  readAll(len(bulk)),
			wantUp: int64(len(bulk)),
		},
		{
			name:   "context cancel",
			serve:  readAll(len(bulk)),
			end:    func(_, _ net.Conn, cancel context.CancelFunc) { cancel() },
			wantUp: int64(len(bulk)),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			client, a := net.Pipe()
			b, server := net.Pipe()
			defer func() {
				for _, conn := range []net.Conn{client, a, b, server} {
					_ = conn.Close()
				}
			}()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			base := Stats().BytesInUse
			var res Result
			gets, returns := poolDelta(t, func() {
				done := make(chan Result, 1)
				go func() {
					r, _ := Bidirectional(ctx, a, b, c.opts)
					done <- r
				}()
				go func() { _, _ = client.Write(bulk) }()
				if err := c.serve(server); err != nil {
					t.Fatalf("server read: %v", err)
				}
				if c.end != nil {
					c.end(client, server, cancel)
				}
				select {
				case res = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("splice did not finish")
				}
			})
			if gets != 3 || returns != 3 {
				t.Errorf("pool gets %d, returns %d; want 3 and 3", gets, returns)
			}
			if got := Stats().BytesInUse - base; got != 0 {
				t.Errorf("%d pool bytes still in use after the splice ended", got)
			}
			if res.AToB != c.wantUp {
				t.Errorf("delivered %d bytes up, want %d", res.AToB, c.wantUp)
			}
		})
	}
}

// readAll returns a server that reads exactly n bytes.
func readAll(n int) func(net.Conn) error {
	return func(server net.Conn) error {
		_, err := io.ReadFull(server, make([]byte, n))
		return err
	}
}
