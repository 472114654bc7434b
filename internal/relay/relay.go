// Package relay implements the overlay node's stream-level services over
// real sockets: a fixed-target TCP forwarder and a split-TCP proxy with a
// one-line CONNECT handshake. The split proxy is the userspace equivalent
// of the paper's split-overlay configuration: it terminates the client's
// TCP connection and opens its own toward the destination, so each half
// runs an independent congestion-control loop over roughly half the RTT.
package relay

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Dialer abstracts net.Dialer for tests.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Config holds relay parameters. The zero value is usable; defaults are
// filled in by New.
type Config struct {
	// Target is the fixed destination for forward mode ("" enables the
	// CONNECT handshake instead).
	Target string
	// DialRetries is how many extra upstream dial attempts follow a
	// transient failure (connection refused, timeout) before the relay
	// gives up (default 0: fail fast).
	DialRetries int
	// DialRetryBackoff is the pause before the first retry, doubling
	// each attempt (default 50 ms).
	DialRetryBackoff time.Duration
	// IdleTimeout closes connections with no traffic in either direction
	// (default 5 min; negative disables).
	IdleTimeout time.Duration
	// BufferBytes caps the bytes each direction holds (default
	// 256 KiB): the relay buffer of a split-TCP proxy. A direction
	// starts on the pool's 4 KiB class, so a connection that carries
	// only small messages holds 2 x 4 KiB. On its first read that fills
	// it, a bulk direction moves to a kernel pipe of BufferBytes with
	// splice(2) on Linux, or to a pooled BufferBytes buffer when no
	// pipe can be had (see pipe.Options). Bytes a client sends behind
	// its CONNECT line are forwarded before the flow starts, so they do
	// not keep it off the splice path.
	BufferBytes int
	// MaxConns caps concurrent relayed connections (default 1024).
	MaxConns int
	// ACL restricts CONNECT-mode targets (nil allows everything; a relay
	// without an ACL is an open proxy).
	ACL *ACL
	// Dialer overrides the upstream dialer (tests).
	Dialer Dialer
	// Obs receives the relay's metrics and flow events (nil disables
	// instrumentation at zero cost).
	Obs *obs.Registry
	// Tracer records relay dial + splice spans for flows whose CONNECT
	// preamble carries a sampled trace context (nil disables tracing at
	// zero cost; unsampled flows cost one nil check).
	Tracer *flowtrace.Tracer
}

// Stats are cumulative relay counters, safe to read concurrently.
type Stats struct {
	// Accepted counts accepted downstream connections.
	Accepted atomic.Int64
	// Active is the number of connections currently being relayed.
	Active atomic.Int64
	// BytesUp and BytesDown count relayed bytes (client->target and back).
	BytesUp   atomic.Int64
	BytesDown atomic.Int64
	// Errors counts failed relay attempts (dial failures, broken pipes).
	Errors atomic.Int64
	// Rejected counts CONNECT attempts refused by the ACL, kept separate
	// from Errors so open-relay probing is distinguishable from upstream
	// trouble.
	Rejected atomic.Int64
	// Overloaded counts connections dropped at accept because MaxConns
	// capacity was exhausted — load shedding, not an error.
	Overloaded atomic.Int64
	// DialRetries counts upstream dial attempts retried after a
	// transient failure.
	DialRetries atomic.Int64
}

// Relay is a running overlay relay listening for downstream connections.
type Relay struct {
	cfg   Config
	ln    net.Listener
	stats *Stats

	dialLatency *obs.Histogram
	scope       *obs.Scope

	// pending counts CONNECT-mode sockets accepted but still waiting for
	// their preamble. They do not burn a MaxConns slot (a warm
	// connection pool keeps idle pre-CONNECT sockets open), but they are
	// capped at 2x MaxConns themselves so an open-socket flood stays
	// bounded without idle warm legs starving fresh arrivals.
	pending atomic.Int64

	// srv owns the accept loop and shutdown; its context, cancelled by
	// Close, unblocks handlers parked in dial-retry backoff.
	srv pipe.Server
}

// errACLRejected marks a CONNECT refusal so serveConn can count it in
// Stats.Rejected rather than Stats.Errors.
var errACLRejected = errors.New("relay: target forbidden by ACL")

// New creates a relay on the listener. Close the relay to release it.
func New(ln net.Listener, cfg Config) *Relay {
	if cfg.DialRetries < 0 {
		cfg.DialRetries = 0
	}
	if cfg.DialRetryBackoff <= 0 {
		cfg.DialRetryBackoff = 50 * time.Millisecond
	}
	if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	} else if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 256 << 10
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	r := &Relay{cfg: cfg, ln: ln, stats: &Stats{}}
	r.instrument(cfg.Obs)
	r.srv.OnAcceptError = func(err error, backoff time.Duration) {
		r.scope.Logger().Warn("relay accept failed, retrying", "err", err, "backoff", backoff.String())
	}
	return r
}

// instrument wires the relay's counters into an obs registry. All obs
// calls are nil-safe, so a nil registry disables instrumentation.
func (r *Relay) instrument(reg *obs.Registry) {
	r.scope = reg.Scope("relay")
	r.dialLatency = reg.Histogram("cronets_relay_dial_latency_seconds",
		"Upstream dial latency of successful dials.", obs.LatencyBuckets)
	reg.CounterFunc("cronets_relay_accepted_total",
		"Downstream connections accepted.", r.stats.Accepted.Load)
	reg.GaugeFunc("cronets_relay_active",
		"Connections currently being relayed.", r.stats.Active.Load)
	reg.CounterFunc(obs.Label("cronets_relay_bytes_total", "dir", "up"),
		"Relayed bytes by direction (up = client to target).", r.stats.BytesUp.Load)
	reg.CounterFunc(obs.Label("cronets_relay_bytes_total", "dir", "down"),
		"Relayed bytes by direction (up = client to target).", r.stats.BytesDown.Load)
	reg.CounterFunc("cronets_relay_errors_total",
		"Failed relay attempts (dials, broken pipes).", r.stats.Errors.Load)
	reg.CounterFunc("cronets_relay_rejected_total",
		"CONNECT attempts refused by the ACL.", r.stats.Rejected.Load)
	reg.CounterFunc("cronets_relay_overloaded_total",
		"Connections dropped at accept because MaxConns was reached.", r.stats.Overloaded.Load)
	reg.CounterFunc("cronets_relay_dial_retries_total",
		"Upstream dial attempts retried after a transient failure.", r.stats.DialRetries.Load)
}

// Addr returns the relay's listen address.
func (r *Relay) Addr() net.Addr { return r.ln.Addr() }

// Stats returns the relay's counters.
func (r *Relay) Stats() *Stats { return r.stats }

// Serve accepts and relays connections until Close. It always returns a
// non-nil error (pipe.ErrServerClosed after a clean shutdown).
func (r *Relay) Serve() error {
	return r.srv.Serve(r.ln, r.admit)
}

// admit runs on the accept loop. It reserves capacity atomically at
// accept time: the handler goroutine has not run yet, so checking Active
// without reserving would let an accept burst sail past the cap.
//
// CONNECT mode defers the MaxConns reservation until the preamble
// arrives, so a warm connection pool can hold idle pre-CONNECT sockets
// open without starving real flows; the idle sockets are bounded by
// their own pending cap.
func (r *Relay) admit(net.Conn) func(net.Conn) {
	var ok bool
	if r.cfg.Target != "" {
		ok = claim(&r.stats.Active, int64(r.cfg.MaxConns))
	} else {
		ok = claim(&r.pending, 2*int64(r.cfg.MaxConns))
	}
	if !ok {
		r.stats.Overloaded.Add(1)
		return nil
	}
	r.stats.Accepted.Add(1)
	return r.serveConn
}

// Close stops accepting, closes live connections, and waits for handlers.
func (r *Relay) Close() error {
	err := r.srv.Close()
	_ = r.ln.Close() // a relay closed before Serve still owns its listener
	return err
}

// claim takes one slot of counter if it is below limit, by
// compare-and-swap, so concurrent claims cannot overshoot: a MaxConns
// slot on Stats.Active, which handle's deferred decrement releases, or a
// pending slot, which handle releases once the preamble arrives or the
// socket dies.
func claim(counter *atomic.Int64, limit int64) bool {
	for {
		cur := counter.Load()
		if cur >= limit {
			return false
		}
		if counter.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// serveConn relays one admitted connection and counts its failure.
func (r *Relay) serveConn(down net.Conn) {
	if err := r.handle(down); err != nil {
		if errors.Is(err, errACLRejected) {
			r.stats.Rejected.Add(1)
		} else {
			r.stats.Errors.Add(1)
		}
	}
}

// handle relays one downstream connection. In forward mode admit has
// already reserved MaxConns capacity (Stats.Active); in CONNECT mode
// admit reserved only a pending slot and the MaxConns reservation
// happens here, once the preamble arrives — an idle pre-CONNECT socket
// (a gateway's warm connection pool) does not burn a relay slot.
func (r *Relay) handle(down net.Conn) error {
	reserved := r.cfg.Target != ""
	defer func() {
		if reserved {
			r.stats.Active.Add(-1)
		}
	}()

	target := r.cfg.Target
	var tc flowtrace.Context
	var br *bufio.Reader
	if target == "" {
		// CONNECT handshake: "CONNECT host:port [TP=<ctx>]\n" -> "OK\n".
		// The read deadline is the relay's IdleTimeout, not pipe.DialTimeout:
		// a pooled pre-CONNECT socket legitimately sits quiet until its
		// owner checks it out, and only then sends the preamble.
		br = bufio.NewReaderSize(down, connectLineBytes)
		if r.cfg.IdleTimeout > 0 {
			_ = down.SetReadDeadline(time.Now().Add(r.cfg.IdleTimeout))
		}
		line, err := br.ReadSlice('\n')
		r.pending.Add(-1)
		if err != nil {
			if errors.Is(err, io.EOF) && len(line) == 0 {
				// A warm socket closed cleanly before sending any
				// preamble: normal pool churn (TTL expiry, pool
				// shutdown), not an error.
				return nil
			}
			if errors.Is(err, bufio.ErrBufferFull) {
				// No newline within connectLineBytes: no valid request
				// is this long, so stop reading instead of buffering
				// whatever the client streams until the deadline.
				_, _ = io.WriteString(down, "ERR bad request\n")
			}
			return fmt.Errorf("relay: read connect line: %w", err)
		}
		_ = down.SetReadDeadline(time.Time{})
		// The line is parsed in place and only the target is copied out:
		// the dial watcher's Peek reuses br's buffer, and the connect and
		// acl-reject events then keep the target, not the whole line and
		// its TP= token. This is sound because the target is the only
		// result of ParseConnectTrace that shares the line's memory.
		t, lineCtx, err := ParseConnectTrace(unsafe.String(unsafe.SliceData(line), len(line)))
		if err != nil {
			_, _ = io.WriteString(down, "ERR bad request\n")
			return err
		}
		t = strings.Clone(t)
		if !r.cfg.ACL.Allow(t) {
			_, _ = io.WriteString(down, "ERR forbidden\n")
			r.scope.Event(obs.EventACLReject, t)
			return fmt.Errorf("relay: ACL forbids %s: %w", t, errACLRejected)
		}
		// The preamble is in: this is a real flow now, so it must claim a
		// MaxConns slot like any forward-mode connection.
		if !claim(&r.stats.Active, int64(r.cfg.MaxConns)) {
			_, _ = io.WriteString(down, "ERR overloaded\n")
			r.stats.Overloaded.Add(1)
			return nil
		}
		reserved = true
		target = t
		tc = lineCtx
		r.scope.Event(obs.EventConnect, t)
	}

	// Dial under a context cancelled when the relay shuts down and — in
	// CONNECT mode — when the client hangs up mid-dial, so a caller that
	// gives up cannot pin this goroutine (and its MaxConns slot) through
	// the whole retry schedule.
	dialCtx, cancelDial := context.WithCancel(r.srv.Context())
	stopWatch := r.watchAbort(down, br, cancelDial)
	dialSpan := r.cfg.Tracer.Continue("relay.dial", tc)
	up, err := r.dialUpstream(dialCtx, target)
	stopWatch()
	cancelDial()
	if err != nil {
		dialSpan.SetDetail("fail " + target)
		dialSpan.End()
		if br != nil {
			_, _ = io.WriteString(down, "ERR dial failed\n")
		}
		r.scope.Event(obs.EventDial, "fail "+target)
		return fmt.Errorf("relay: dial %s: %w", target, err)
	}
	dialSpan.SetDetail(target)
	dialSpan.End()
	r.scope.Event(obs.EventDial, "ok "+target)
	if !r.srv.Track(up) {
		return nil // the relay closed during the dial
	}
	defer r.srv.Untrack(up)

	var pipelined int
	if br != nil {
		if _, err := io.WriteString(down, "OK\n"); err != nil {
			return fmt.Errorf("relay: write connect reply: %w", err)
		}
		// Bytes the client sent behind its CONNECT line without waiting
		// for OK sit in br. Forward them once, so both directions run
		// on the raw conns and a bulk flow can still splice.
		if n := br.Buffered(); n > 0 {
			b, _ := br.Peek(n) // n bytes are buffered: Peek cannot fail
			pipelined, err = up.Write(b)
			r.stats.BytesUp.Add(int64(pipelined))
			if err != nil {
				return fmt.Errorf("relay: forward pipelined bytes: %w", err)
			}
		}
	}
	return r.splice(down, up, pipelined, tc)
}

// watchAbort watches a CONNECT-mode downstream for the client hanging up
// while the upstream dial (and its retry schedule) is in flight, calling
// cancel if it does. Peek never consumes: bytes a client pipelines ahead
// of the OK reply stay buffered for handle to forward. The returned stop
// func unblocks the watcher and waits for it to exit, so the caller
// regains exclusive use of the connection. In forward mode (nil br)
// there is nothing to watch, and a client whose bytes br already holds
// has shown it is there (Peek would return at once); for both, stop is a
// no-op.
func (r *Relay) watchAbort(down net.Conn, br *bufio.Reader, cancel context.CancelFunc) (stop func()) {
	if br == nil || br.Buffered() > 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := br.Peek(1); err != nil && !pipe.IsTimeout(err) {
			// EOF / reset: the client is gone. A timeout is stop()
			// reclaiming the connection, not a hangup.
			cancel()
		}
	}()
	return func() {
		_ = down.SetReadDeadline(pipe.Expired)
		<-done
		_ = down.SetReadDeadline(time.Time{})
	}
}

// dialUpstream dials the target, retrying transient failures (refused,
// timeout) up to DialRetries times with jittered exponential backoff —
// the cloud overlay's answer to a relay or destination that is briefly
// unreachable while it restarts or fails over. The jitter desynchronizes
// the retry schedules of the many flows a relay dials on behalf of, so
// they cannot storm a recovering upstream in lockstep. Cancelling ctx
// (relay shutdown, client hangup) aborts both the dial and the backoff
// sleep immediately.
func (r *Relay) dialUpstream(ctx context.Context, target string) (net.Conn, error) {
	backoff := r.cfg.DialRetryBackoff
	for attempt := 0; ; attempt++ {
		dialCtx, cancel := context.WithTimeout(ctx, pipe.DialTimeout)
		dialStart := time.Now()
		up, err := r.cfg.Dialer.DialContext(dialCtx, "tcp", target)
		cancel()
		if err == nil {
			r.dialLatency.ObserveDuration(time.Since(dialStart))
			return up, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("relay: dial abandoned: %w", ctx.Err())
		}
		if attempt >= r.cfg.DialRetries || !transientDialError(err) {
			return nil, err
		}
		r.stats.DialRetries.Add(1)
		r.scope.Event(obs.EventDialRetry,
			fmt.Sprintf("%s attempt %d: %v", target, attempt+1, err))
		wait := backoff + backoffJitter(backoff)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("relay: dial abandoned: %w", ctx.Err())
		case <-time.After(wait):
		}
		backoff *= 2
	}
}

// backoffJitter draws a uniform [0, d/2] jitter so concurrent retry
// schedules spread out instead of synchronizing.
func backoffJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d)/2 + 1))
}

// transientDialError reports whether a dial failure is worth retrying:
// timeouts and refused connections pass, everything else (unreachable
// network, bad address) fails fast.
func transientDialError(err error) bool {
	return pipe.IsTimeout(err) || errors.Is(err, syscall.ECONNREFUSED)
}

// splice runs the shared data-plane loop over the connection pair: pooled
// buffers, live byte counters, TCP half-close propagation, and the idle
// timeout, all from internal/pipe. pipelined is the count of bytes handle
// already forwarded upstream from the CONNECT reader. For sampled flows
// it records a relay.splice span (bytes, pipelined ones included, and
// first-byte latency); unsampled flows leave the loop's options exactly
// as before.
func (r *Relay) splice(down, up net.Conn, pipelined int, tc flowtrace.Context) error {
	opts := pipe.Options{
		BufferBytes: r.cfg.BufferBytes,
		IdleTimeout: r.cfg.IdleTimeout,
		OnIdle: func() {
			r.scope.Event(obs.EventIdleClose, down.RemoteAddr().String())
		},
		CountAToB: &r.stats.BytesUp,
		CountBToA: &r.stats.BytesDown,
	}
	span := r.cfg.Tracer.Continue("relay.splice", tc)
	if span != nil {
		// TTFB at the relay: the first byte coming back from the
		// upstream toward the client.
		opts.OnFirstByte = func(dir pipe.Dir) {
			if dir == pipe.BToA {
				span.MarkFirstByte()
			}
		}
	}
	res, err := pipe.Bidirectional(context.Background(), down, up, opts)
	span.AddBytes(int64(pipelined) + res.AToB + res.BToA)
	span.End()
	return err
}

// connectVerb opens a CONNECT line; tracePrefix introduces its optional
// trace-context token: "CONNECT host:port TP=<48 hex chars>".
const (
	connectVerb = "CONNECT "
	tracePrefix = "TP="
)

// The handshake readers hold only the longest line each side accepts,
// rather than bufio's 4 KiB default, for every pre-CONNECT socket a
// relay keeps open. A line that fills its reader without a newline is
// malformed.
const (
	// connectLineBytes fits the longest request: "CONNECT ", a 253-byte
	// host, ":65535", " TP=", a 48-character token and "\r\n" make 322
	// bytes.
	connectLineBytes = 512
	// connectReplyBytes fits "OK" and the relay's "ERR ..." replies.
	connectReplyBytes = 64
)

// appendConnectLine appends the CONNECT request line for target to dst.
// A sampled trace context rides in a TP= token; an unsampled or zero one
// is left off.
func appendConnectLine(dst []byte, target string, tc flowtrace.Context) []byte {
	dst = append(dst, connectVerb...)
	dst = append(dst, target...)
	if tc.Sampled && !tc.IsZero() {
		dst = append(dst, ' ')
		dst = append(dst, tracePrefix...)
		dst = append(dst, tc.EncodeText()...)
	}
	return append(dst, '\n')
}

// linePool recycles Connect's request-line buffers: Connect runs once per
// relay dial and per chain hop.
var linePool = sync.Pool{New: func() any { return new([connectLineBytes]byte) }}

// ParseConnectTrace parses a "CONNECT host:port [TP=<ctx>]" request
// line, returning the target and the propagated trace context (zero when
// absent or malformed — a bad trace token never fails the handshake,
// tracing is best-effort). A line longer than the relay's CONNECT reader
// holds (newline included) is refused, as the relay refuses it.
//
// The target is a substring of line, and nothing else returned shares
// line's memory: an error's text is a copy. The relay relies on this to
// parse a string over its reader's buffer, copying out only the target
// before the buffer is reused; TestParseConnectTrace checks it.
func ParseConnectTrace(line string) (string, flowtrace.Context, error) {
	if len(line) > connectLineBytes {
		return "", flowtrace.Context{}, fmt.Errorf("relay: request line over %d bytes", connectLineBytes)
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, connectVerb) {
		return "", flowtrace.Context{}, fmt.Errorf("relay: malformed request %q", line)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(line, connectVerb))
	target := rest
	var tc flowtrace.Context
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		target = rest[:i]
		if tok := strings.TrimSpace(rest[i+1:]); strings.HasPrefix(tok, tracePrefix) {
			if c, ok := flowtrace.DecodeText(strings.TrimPrefix(tok, tracePrefix)); ok {
				tc = c
			}
		}
	}
	host, port, err := net.SplitHostPort(target)
	if err != nil || host == "" || port == "" {
		return "", flowtrace.Context{}, fmt.Errorf("relay: bad target %q", target)
	}
	return target, tc, nil
}

// ErrRefused marks a CONNECT the relay answered with an ERR line: the
// relay's socket is alive but it declined the flow (ACL forbids the
// target, MaxConns overload, upstream dial failure). Callers classify it
// with errors.Is — it is path-down evidence of a different kind than a
// dead socket or a dial timeout, and pathmon counts it separately.
var ErrRefused = errors.New("relay: connect refused")

// Connect runs the client half of the CONNECT handshake for target on an
// already-open connection to a relay, returning the relayed connection —
// the warm-pool checkout path: a gateway that keeps pre-established relay
// sockets skips the TCP handshake leg and pays only this one round trip.
// ctx bounds the whole preamble exchange (pipe.BindContext): its
// deadline covers both the request write and the reply read, cancelling
// it mid-handshake force-expires the socket so the caller returns
// promptly, and a ctx that ends as the OK arrives fails the handshake
// rather than hand on a socket whose deadline has expired. If ctx
// carries a sampled trace context (flowtrace.NewGoContext), it rides in
// the preamble so the relay's spans join the trace. On error the
// connection is closed.
func Connect(ctx context.Context, conn net.Conn, target string) (net.Conn, error) {
	bound := pipe.BindContext(ctx, conn)
	buf := linePool.Get().(*[connectLineBytes]byte)
	_, err := conn.Write(appendConnectLine(buf[:0], target, flowtrace.FromGoContext(ctx)))
	linePool.Put(buf)
	if err != nil {
		bound.Release()
		_ = conn.Close()
		return nil, fmt.Errorf("relay: send connect: %w", pipe.ContextErr(ctx, err))
	}
	br := bufio.NewReaderSize(conn, connectReplyBytes)
	line, err := br.ReadSlice('\n')
	ctxEnded := bound.Release()
	if err != nil {
		_ = conn.Close()
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("relay: malformed connect reply: no newline in %d bytes", len(line))
		}
		return nil, fmt.Errorf("relay: read connect reply: %w", pipe.ContextErr(ctx, err))
	}
	if line = bytes.TrimSpace(line); string(line) != "OK" {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, line)
	}
	if ctxEnded {
		_ = conn.Close()
		return nil, fmt.Errorf("relay: connect aborted: %w", ctx.Err())
	}
	if br.Buffered() > 0 {
		// The destination's first bytes (a server-first banner) came in
		// with the OK: replay them, and keep the TCP half-close surface.
		return pipe.WithReader(conn, br), nil
	}
	return conn, nil
}
