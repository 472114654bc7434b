package pipe

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gets/returns deltas over a function, for leak accounting.
func poolDelta(t *testing.T, fn func()) (gets, returns int64) {
	t.Helper()
	before := Stats()
	fn()
	after := Stats()
	return (after.Hits + after.Misses) - (before.Hits + before.Misses),
		(after.Puts + after.Discards) - (before.Puts + before.Discards)
}

func TestPoolSizeClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 4 << 10},
		{4 << 10, 4 << 10},
		{4<<10 + 1, 32 << 10},
		{32 << 10, 32 << 10},
		{200 << 10, 256 << 10},
		{256 << 10, 256 << 10},
	}
	for _, c := range cases {
		base := Stats().BytesInUse
		b := Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d",
				c.n, len(b), cap(b), c.n, c.wantCap)
		}
		if got := Stats().BytesInUse - base; got != int64(c.wantCap) {
			t.Errorf("Get(%d): bytes in use +%d, want +%d (the class size)", c.n, got, c.wantCap)
		}
		Put(b)
		if got := Stats().BytesInUse - base; got != 0 {
			t.Errorf("Get(%d) then Put: bytes in use %+d, want 0", c.n, got)
		}
	}
	// Oversize requests allocate exactly and are discarded on Put; like
	// foreign buffers, they are never counted in use.
	before := Stats()
	big := Get(300 << 10)
	if len(big) != 300<<10 {
		t.Fatalf("oversize Get: len=%d", len(big))
	}
	if got := Stats().BytesInUse - before.BytesInUse; got != 0 {
		t.Errorf("oversize Get: bytes in use %+d, want 0", got)
	}
	Put(big)
	Put(make([]byte, 100))
	after := Stats()
	if after.Discards != before.Discards+2 {
		t.Errorf("oversize and foreign Puts should discard: discards %d -> %d",
			before.Discards, after.Discards)
	}
	if after.BytesInUse != before.BytesInUse {
		t.Errorf("oversize and foreign buffers moved bytes in use %d -> %d",
			before.BytesInUse, after.BytesInUse)
	}
}

// TestPoolConcurrentNoBleed hammers the pool from many goroutines, each
// writing its own canary pattern and verifying it after a reschedule. A
// buffer handed to two goroutines at once shows up as a corrupted canary.
func TestPoolConcurrentNoBleed(t *testing.T) {
	const goroutines = 16
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			sizes := []int{100, 4 << 10, 20 << 10, 256 << 10}
			for i := 0; i < rounds; i++ {
				buf := Get(sizes[i%len(sizes)])
				for j := range buf {
					buf[j] = id
				}
				if i%7 == 0 {
					time.Sleep(time.Microsecond)
				}
				for j := range buf {
					if buf[j] != id {
						errs <- fmt.Errorf("goroutine %d round %d: canary corrupted at %d: got %d",
							id, i, j, buf[j])
						return
					}
				}
				Put(buf)
			}
		}(byte(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// echoAccept starts a listener whose connections are echoed until client
// EOF, then half-closed server-side so the tail drains.
func echoAccept(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 8<<10)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						closeWrite(c)
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// splice dials target and splices an accepted downstream connection onto
// it via Bidirectional — a minimal relay for the half-close matrix.
func startSplice(t *testing.T, target string, opts Options) (addr string, done <-chan Result, errc <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	donec := make(chan Result, 1)
	errs := make(chan error, 1)
	go func() {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", target)
		if err != nil {
			errs <- err
			return
		}
		defer up.Close()
		res, perr := Bidirectional(context.Background(), down, up, opts)
		donec <- res
		errs <- perr
	}()
	return ln.Addr().String(), donec, errs
}

// TestHalfCloseClientCloses: the client writes, half-closes, and must
// still receive the full echo before EOF — in-flight data survives the
// client's FIN through the splice.
func TestHalfCloseClientCloses(t *testing.T) {
	echo := echoAccept(t)
	payload := bytes.Repeat([]byte("half-close-client "), 1000)

	gets, returns := poolDelta(t, func() {
		addr, done, errc := startSplice(t, echo.Addr().String(), Options{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).CloseWrite()
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("read echo: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
		}
		res := <-done
		if err := <-errc; err != nil {
			t.Fatalf("Bidirectional: %v", err)
		}
		if res.AToB != int64(len(payload)) || res.BToA != int64(len(payload)) {
			t.Errorf("Result bytes = %d/%d, want %d both ways", res.AToB, res.BToA, len(payload))
		}
	})
	if gets != returns {
		t.Errorf("pool leak: %d gets, %d returns", gets, returns)
	}
}

// TestHalfCloseServerCloses: the far side writes a banner and closes; the
// client must see the banner then EOF, and the splice must finish.
func TestHalfCloseServerCloses(t *testing.T) {
	banner := []byte("greetings from upstream\n")
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		c, err := srv.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write(banner)
		_ = c.Close()
	}()

	gets, returns := poolDelta(t, func() {
		addr, done, errc := startSplice(t, srv.Addr().String(), Options{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("read banner: %v", err)
		}
		if !bytes.Equal(got, banner) {
			t.Fatalf("banner mismatch: %q", got)
		}
		_ = conn.Close()
		<-done
		if err := <-errc; err != nil {
			t.Fatalf("Bidirectional: %v", err)
		}
	})
	if gets != returns {
		t.Errorf("pool leak: %d gets, %d returns", gets, returns)
	}
}

// TestHalfCloseBothSides: both peers half-close after writing; both tails
// must be delivered.
func TestHalfCloseBothSides(t *testing.T) {
	serverSays := []byte("server tail")
	clientSays := []byte("client tail")
	received := make(chan []byte, 1)
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		c, err := srv.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write(serverSays)
		closeWrite(c)
		got, _ := io.ReadAll(c)
		received <- got
		_ = c.Close()
	}()

	addr, done, errc := startSplice(t, srv.Addr().String(), Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(clientSays); err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serverSays) {
		t.Errorf("client read %q, want %q", got, serverSays)
	}
	if got := <-received; !bytes.Equal(got, clientSays) {
		t.Errorf("server read %q, want %q", got, clientSays)
	}
	<-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
}

// TestAbortTeardown: a mid-flight hard close must finish the splice
// promptly (no deadlock waiting on the other direction) and still return
// every pooled buffer.
func TestAbortTeardown(t *testing.T) {
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	go func() {
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			defer c.Close() // never reads, never writes
		}
	}()

	gets, returns := poolDelta(t, func() {
		addr, done, errc := startSplice(t, blackhole.Addr().String(), Options{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
		// Hard abort: SO_LINGER 0 turns Close into a RST.
		_ = conn.(*net.TCPConn).SetLinger(0)
		_ = conn.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("splice did not finish after abort")
		}
		<-errc // RST surfaces as a hard error or as clean close; either is fine
	})
	if gets != returns {
		t.Errorf("pool leak after abort: %d gets, %d returns", gets, returns)
	}
}

// TestIdleTimeout: a silent pair is torn down, OnIdle fires, the result is
// flagged, and no error is reported.
func TestIdleTimeout(t *testing.T) {
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		c, err := srv.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.ReadAll(c)
	}()

	var idleCalls atomic.Int64
	gets, returns := poolDelta(t, func() {
		addr, done, errc := startSplice(t, srv.Addr().String(), Options{
			IdleTimeout: 80 * time.Millisecond,
			OnIdle:      func() { idleCalls.Add(1) },
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		select {
		case res := <-done:
			if !res.IdleClosed {
				t.Error("Result.IdleClosed = false, want true")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("idle timeout never fired")
		}
		if err := <-errc; err != nil {
			t.Errorf("idle teardown reported error: %v", err)
		}
	})
	if got := idleCalls.Load(); got != 1 {
		t.Errorf("OnIdle called %d times, want 1", got)
	}
	if gets != returns {
		t.Errorf("pool leak after idle close: %d gets, %d returns", gets, returns)
	}
}

// TestIdleTimeoutTrafficKeepsAlive: steady traffic must hold the idle
// timer off.
func TestIdleTimeoutTrafficKeepsAlive(t *testing.T) {
	echo := echoAccept(t)
	addr, done, errc := startSplice(t, echo.Addr().String(), Options{
		IdleTimeout: 150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4)
	for i := 0; i < 8; i++ {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		time.Sleep(60 * time.Millisecond) // under the timeout, but 8x over it in sum
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	res := <-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	if res.IdleClosed {
		t.Error("flow with steady traffic was idle-closed")
	}
}

// TestCountersAndHook: live per-direction counters count written bytes,
// and a chunk-splitting hook preserves the byte stream.
func TestCountersAndHook(t *testing.T) {
	echo := echoAccept(t)
	var up, down atomic.Int64
	var hookChunks atomic.Int64
	opts := Options{
		BufferBytes: 1 << 10,
		CountAToB:   &up,
		CountBToA:   &down,
		Hook: func(dir Dir, chunk []byte, write WriteFunc) error {
			hookChunks.Add(1)
			// Deliver in split pieces to exercise sub-chunk writes.
			for len(chunk) > 0 {
				n := len(chunk)/2 + 1
				if err := write(chunk[:n]); err != nil {
					return err
				}
				chunk = chunk[n:]
			}
			return nil
		},
	}
	payload := bytes.Repeat([]byte("hooked!"), 4096)
	addr, done, errc := startSplice(t, echo.Addr().String(), opts)
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
		t.Fatalf("hooked stream corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	res := <-done
	if err := <-errc; err != nil {
		t.Fatalf("Bidirectional: %v", err)
	}
	want := int64(len(payload))
	if up.Load() != want || down.Load() != want {
		t.Errorf("counters up=%d down=%d, want %d both", up.Load(), down.Load(), want)
	}
	if res.AToB != want || res.BToA != want {
		t.Errorf("result AToB=%d BToA=%d, want %d both", res.AToB, res.BToA, want)
	}
	if hookChunks.Load() == 0 {
		t.Error("hook was never called")
	}
}

// TestHookAbort: a hook error tears the pair down and surfaces from
// Bidirectional.
func TestHookAbort(t *testing.T) {
	echo := echoAccept(t)
	abortErr := fmt.Errorf("shaped to death")
	gets, returns := poolDelta(t, func() {
		addr, done, errc := startSplice(t, echo.Addr().String(), Options{
			Hook: func(dir Dir, chunk []byte, write WriteFunc) error { return abortErr },
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("trigger")); err != nil {
			t.Fatal(err)
		}
		<-done
		if err := <-errc; err == nil {
			t.Error("hook abort did not surface an error")
		}
	})
	if gets != returns {
		t.Errorf("pool leak after hook abort: %d gets, %d returns", gets, returns)
	}
}

// TestContextCancel: cancelling the context closes both connections and
// finishes the splice cleanly.
func TestContextCancel(t *testing.T) {
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		c, err := srv.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.ReadAll(c)
	}()
	up, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	downA, downB := net.Pipe()
	defer downA.Close()
	defer downB.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Bidirectional(ctx, downB, up, Options{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("context cancel reported error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("splice did not finish after context cancel")
	}
}

// TestWithReader: the wrapper replays a buffered prefix and still forwards
// TCP half-close to the underlying connection.
func TestWithReader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wrapped := WithReader(a, io.MultiReader(bytes.NewReader([]byte("prefix-")), a))
	go func() {
		_, _ = b.Write([]byte("suffix"))
		_ = b.Close()
	}()
	got, err := io.ReadAll(wrapped)
	if err != nil && err != io.EOF && err != io.ErrClosedPipe {
		t.Fatal(err)
	}
	if want := "prefix-suffix"; string(got) != want {
		t.Errorf("read %q, want %q", got, want)
	}
	// net.Pipe has no CloseWrite/CloseRead; forwarding must be a no-op,
	// not a panic.
	if err := wrapped.(*readerConn).CloseWrite(); err != nil {
		t.Errorf("CloseWrite on pipe-backed wrapper: %v", err)
	}
	if err := wrapped.(*readerConn).CloseRead(); err != nil {
		t.Errorf("CloseRead on pipe-backed wrapper: %v", err)
	}
}
