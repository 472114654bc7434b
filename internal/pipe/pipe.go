package pipe

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Dir identifies one direction of a bidirectional splice.
type Dir int

// Directions. AToB reads from the first connection and writes to the
// second; callers conventionally pass the client/downstream side as a, so
// AToB is "up" and BToA is "down".
const (
	AToB Dir = iota
	BToA
)

// String returns the direction's display name.
func (d Dir) String() string {
	if d == AToB {
		return "a->b"
	}
	return "b->a"
}

// WriteFunc delivers bytes toward the direction's destination, metering
// them into the direction's counters. It returns the destination's write
// error, if any.
type WriteFunc func(p []byte) error

// Hook intercepts every chunk read by Bidirectional before it is written.
// The hook owns delivery: it must call write zero or more times (netem
// splits chunks at fault offsets and sleeps between pieces; a rate
// limiter paces calls; a filter may drop bytes by not writing them).
// Returning a non-nil error aborts the connection pair. The chunk is only
// valid until the hook returns.
type Hook func(dir Dir, chunk []byte, write WriteFunc) error

// Options configures Bidirectional.
type Options struct {
	// BufferBytes caps the bytes each direction holds in flight
	// (default DefaultBufferBytes), and so the largest chunk a read (and
	// the Hook) sees. A direction starts on the pool's smallest class.
	// On its first read that fills that buffer it moves the rest of the
	// flow through a kernel pipe of BufferBytes with splice(2) when both
	// conns are *net.TCPConn, there is no Hook and the platform is
	// Linux; otherwise it grows to a pooled buffer of BufferBytes.
	BufferBytes int
	// IdleTimeout tears the pair down when no byte moves in either
	// direction for this long (0 disables).
	IdleTimeout time.Duration
	// OnIdle, if set, is called once when the idle timeout fires, before
	// the connections are closed.
	OnIdle func()
	// CountAToB and CountBToA, if set, are incremented live with every
	// write in the respective direction, so metrics see bytes as they
	// move rather than when the flow ends.
	CountAToB, CountBToA *atomic.Int64
	// Hook, if set, intercepts every chunk (see Hook).
	Hook Hook
	// OnFirstByte, if set, is called once per direction when its first
	// chunk arrives, before the chunk is delivered — the hook point for
	// first-byte-latency (TTFB) measurement. Nil costs the splice loop
	// nothing.
	OnFirstByte func(dir Dir)
}

// Result reports what a finished Bidirectional moved.
type Result struct {
	// AToB and BToA are the bytes written in each direction.
	AToB, BToA int64
	// Duration is the wall-clock lifetime of the splice.
	Duration time.Duration
	// IdleClosed reports that the idle timeout (not the peers) ended the
	// flow.
	IdleClosed bool
}

// closeWriter and closeReader are the TCP half-close surfaces
// (*net.TCPConn implements both; wrappers forward them).
type closeWriter interface{ CloseWrite() error }
type closeReader interface{ CloseRead() error }

func closeWrite(c net.Conn) {
	if cw, ok := c.(closeWriter); ok {
		_ = cw.CloseWrite()
	}
}

func closeRead(c net.Conn) {
	if cr, ok := c.(closeReader); ok {
		_ = cr.CloseRead()
	}
}

// Bidirectional splices a and b together until both directions finish: the
// one shared implementation of the overlay's forwarding loop. A direction
// hitting clean EOF propagates the half-close (CloseWrite toward its
// destination, CloseRead on its source) and lets the opposite direction
// drain — the split-TCP teardown that keeps in-flight data alive; a read
// or write error closes both connections to unblock the peer direction.
// Context cancellation and the idle timeout also close both connections.
// Bidirectional does not close the connections on a clean finish — the
// caller owns them — but after a full bidirectional EOF both are
// half-closed in both directions and therefore dead.
//
// The returned error is nil for clean teardown (EOF, idle, context or
// caller-initiated close); otherwise it is the first hard error either
// direction hit.
func Bidirectional(ctx context.Context, a, b net.Conn, opts Options) (Result, error) {
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = DefaultBufferBytes
	}
	start := time.Now()

	var res Result
	var idleFired atomic.Bool
	idle := newIdleWatch(opts.IdleTimeout, func() {
		idleFired.Store(true)
		if opts.OnIdle != nil {
			opts.OnIdle()
		}
		_ = a.Close()
		_ = b.Close()
	})
	defer idle.stop()

	if ctx != nil && ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				_ = a.Close()
				_ = b.Close()
			case <-watchDone:
			}
		}()
	}

	errc := make(chan error, 2)
	go func() {
		n, err := copyHalf(b, a, AToB, &opts, idle)
		res.AToB = n
		if err != nil {
			_ = a.Close()
			_ = b.Close()
		}
		errc <- err
	}()
	go func() {
		n, err := copyHalf(a, b, BToA, &opts, idle)
		res.BToA = n
		if err != nil {
			_ = a.Close()
			_ = b.Close()
		}
		errc <- err
	}()

	err := firstErr(<-errc, <-errc)
	res.Duration = time.Since(start)
	res.IdleClosed = idleFired.Load()
	if res.IdleClosed || (ctx != nil && ctx.Err() != nil) {
		err = nil
	}
	return res, err
}

// copyHalf pumps one direction with a pooled buffer until EOF or error.
// It starts on the pool's smallest class (or BufferBytes, if smaller):
// most relayed flows carry short messages, and a full buffer per
// direction would sit mostly unused for their whole life. The first read
// that fills the buffer shows a bulk flow; once that chunk is delivered
// (the Hook contract), the small buffer goes back to the pool. Between
// two plain TCP conns without a Hook, spliceRest moves the rest of the
// flow in the kernel; otherwise a full BufferBytes buffer takes the small
// one's place. Whichever buffer is held is returned on every exit path.
func copyHalf(dst, src net.Conn, dir Dir, opts *Options, idle *idleWatch) (int64, error) {
	buf := Get(min(opts.BufferBytes, classSizes[0]))
	defer func() { Put(buf) }()

	m := &meter{live: opts.CountAToB}
	if dir == BToA {
		m.live = opts.CountBToA
	}
	write := func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		nw, err := dst.Write(p)
		m.add(nw)
		return err
	}
	awaitingFirst := opts.OnFirstByte != nil
	for {
		rn, rerr := src.Read(buf)
		if rn > 0 {
			idle.touch()
			if awaitingFirst {
				awaitingFirst = false
				opts.OnFirstByte(dir)
			}
			var werr error
			if opts.Hook != nil {
				werr = opts.Hook(dir, buf[:rn], write)
			} else {
				werr = write(buf[:rn])
			}
			if werr != nil {
				return m.n, werr
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				halfClose(dst, src)
				return m.n, nil
			}
			return m.n, rerr
		}
		if rn == len(buf) && rn < opts.BufferBytes {
			Put(buf)
			buf = nil
			if opts.Hook == nil {
				if handled, err := spliceRest(dst, src, opts.BufferBytes, idle, m); handled {
					return m.n, err
				}
			}
			buf = Get(opts.BufferBytes)
		}
	}
}

// meter counts the bytes one direction has written: n for its Result,
// live for the caller's Options counter, if any.
type meter struct {
	n    int64
	live *atomic.Int64
}

func (m *meter) add(nw int) {
	m.n += int64(nw)
	if m.live != nil {
		m.live.Add(int64(nw))
	}
}

// halfClose propagates a direction's clean EOF: the destination learns
// this direction is done (FIN) while its own sending side stays open for
// the opposite direction to drain.
func halfClose(dst, src net.Conn) {
	closeWrite(dst)
	closeRead(src)
}

// firstErr returns the first hard error, treating EOF and closed-connection
// errors as clean.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err == nil || err == io.EOF || errors.Is(err, net.ErrClosed) {
			continue
		}
		return err
	}
	return nil
}

// WithReader returns a net.Conn that reads from r but otherwise behaves as
// conn, forwarding TCP half-close to the underlying connection. Callers
// that buffered bytes during a handshake (relay.Connect's reply reader)
// use it to hand on a connection whose reads replay the buffered prefix.
func WithReader(conn net.Conn, r io.Reader) net.Conn {
	return &readerConn{Conn: conn, r: r}
}

type readerConn struct {
	net.Conn
	r io.Reader
}

func (c *readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *readerConn) CloseWrite() error {
	if cw, ok := c.Conn.(closeWriter); ok {
		return cw.CloseWrite()
	}
	return nil
}

func (c *readerConn) CloseRead() error {
	if cr, ok := c.Conn.(closeReader); ok {
		return cr.CloseRead()
	}
	return nil
}

// idleWatch fires a callback when touch is not called for the timeout.
type idleWatch struct {
	timeout time.Duration
	timer   *time.Timer

	mu      sync.Mutex
	stopped bool
}

func newIdleWatch(timeout time.Duration, onIdle func()) *idleWatch {
	w := &idleWatch{timeout: timeout}
	if timeout > 0 {
		w.timer = time.AfterFunc(timeout, onIdle)
	}
	return w
}

// touch resets the idle countdown. Nil-safe and cheap when no timeout is
// configured.
func (w *idleWatch) touch() {
	if w == nil || w.timer == nil {
		return
	}
	w.mu.Lock()
	if !w.stopped {
		w.timer.Reset(w.timeout)
	}
	w.mu.Unlock()
}

// stop cancels the watch.
func (w *idleWatch) stop() {
	if w == nil || w.timer == nil {
		return
	}
	w.mu.Lock()
	w.stopped = true
	w.timer.Stop()
	w.mu.Unlock()
}
