// Package relay implements the overlay node's stream-level services over
// real sockets: a fixed-target TCP forwarder and a split-TCP proxy with a
// one-line CONNECT handshake. The split proxy is the userspace equivalent
// of the paper's split-overlay configuration: it terminates the client's
// TCP connection and opens its own toward the destination, so each half
// runs an independent congestion-control loop over roughly half the RTT.
package relay

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

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
	// DialTimeout bounds each upstream dial attempt (default 10 s).
	DialTimeout time.Duration
	// DialRetries is how many extra upstream dial attempts follow a
	// transient failure (connection refused, timeout) before the relay
	// gives up (default 0: fail fast).
	DialRetries int
	// DialRetryBackoff is the pause before the first retry, doubling
	// each attempt (default 50 ms).
	DialRetryBackoff time.Duration
	// IdleTimeout closes connections with no traffic in either direction
	// (default 5 min; 0 disables).
	IdleTimeout time.Duration
	// BufferBytes sizes each direction's copy buffer (default 256 KiB) —
	// the relay buffer of a split-TCP proxy.
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
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
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
// their own equal-sized pending cap.
func (r *Relay) admit(net.Conn) func(net.Conn) {
	var ok bool
	if r.cfg.Target != "" {
		ok = r.reserve()
	} else {
		ok = r.reservePending()
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

// reserve claims one unit of MaxConns capacity via compare-and-swap on
// the Active counter; the handler's deferred decrement releases it.
func (r *Relay) reserve() bool {
	for {
		cur := r.stats.Active.Load()
		if cur >= int64(r.cfg.MaxConns) {
			return false
		}
		if r.stats.Active.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// reservePending claims one unit of the pre-CONNECT pending cap (2x
// MaxConns — headroom so long-lived idle warm legs cannot starve fresh
// arrivals of their transient pending slot); releasePending returns it
// once the preamble arrives or the socket dies.
func (r *Relay) reservePending() bool {
	for {
		cur := r.pending.Load()
		if cur >= 2*int64(r.cfg.MaxConns) {
			return false
		}
		if r.pending.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (r *Relay) releasePending() { r.pending.Add(-1) }

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
		// The read deadline is the relay's IdleTimeout, not DialTimeout:
		// a pooled pre-CONNECT socket legitimately sits quiet until its
		// owner checks it out, and only then sends the preamble.
		br = bufio.NewReader(down)
		if r.cfg.IdleTimeout > 0 {
			_ = down.SetReadDeadline(time.Now().Add(r.cfg.IdleTimeout))
		}
		line, err := br.ReadString('\n')
		r.releasePending()
		if err != nil {
			if errors.Is(err, io.EOF) && line == "" {
				// A warm socket closed cleanly before sending any
				// preamble: normal pool churn (TTL expiry, pool
				// shutdown), not an error.
				return nil
			}
			return fmt.Errorf("relay: read connect line: %w", err)
		}
		_ = down.SetReadDeadline(time.Time{})
		t, lineCtx, err := ParseConnectTrace(line)
		if err != nil {
			_, _ = io.WriteString(down, "ERR bad request\n")
			return err
		}
		if !r.cfg.ACL.Allow(t) {
			_, _ = io.WriteString(down, "ERR forbidden\n")
			r.scope.Event(obs.EventACLReject, t)
			return fmt.Errorf("relay: ACL forbids %s: %w", t, errACLRejected)
		}
		// The preamble is in: this is a real flow now, so it must claim a
		// MaxConns slot like any forward-mode connection.
		if !r.reserve() {
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

	if br != nil {
		if _, err := io.WriteString(down, "OK\n"); err != nil {
			return fmt.Errorf("relay: write connect reply: %w", err)
		}
	}

	var downReader io.Reader = down
	if br != nil && br.Buffered() > 0 {
		downReader = io.MultiReader(io.LimitReader(br, int64(br.Buffered())), down)
	}
	return r.splice(down, downReader, up, tc)
}

// watchAbort watches a CONNECT-mode downstream for the client hanging up
// while the upstream dial (and its retry schedule) is in flight, calling
// cancel if it does. Peek never consumes: bytes a client pipelines ahead
// of the OK reply stay buffered for the splice. The returned stop func
// unblocks the watcher and waits for it to exit, so the caller regains
// exclusive use of the connection. In forward mode (nil br) there is
// nothing to watch and stop is a no-op.
func (r *Relay) watchAbort(down net.Conn, br *bufio.Reader, cancel context.CancelFunc) (stop func()) {
	if br == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := br.Peek(1); err != nil && !isTimeout(err) {
			// EOF / reset: the client is gone. A timeout is stop()
			// reclaiming the connection, not a hangup.
			cancel()
		}
	}()
	return func() {
		_ = down.SetReadDeadline(aLongTimeAgo)
		<-done
		_ = down.SetReadDeadline(time.Time{})
	}
}

// aLongTimeAgo is an expired deadline used to unblock in-flight reads.
var aLongTimeAgo = time.Unix(1, 0)

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
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
		dialCtx, cancel := context.WithTimeout(ctx, r.cfg.DialTimeout)
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
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, context.DeadlineExceeded)
}

// splice runs the shared data-plane loop over the connection pair: pooled
// buffers, live byte counters, TCP half-close propagation, and the idle
// timeout, all from internal/pipe. For sampled flows it records a
// relay.splice span (bytes, first-byte latency); unsampled flows leave
// the loop's options exactly as before.
func (r *Relay) splice(down net.Conn, downReader io.Reader, up net.Conn, tc flowtrace.Context) error {
	a := down
	if downReader != io.Reader(down) {
		// Replay handshake bytes the CONNECT reader over-read.
		a = pipe.WithReader(down, downReader)
	}
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
	res, err := pipe.Bidirectional(context.Background(), a, up, opts)
	span.AddBytes(res.AToB + res.BToA)
	span.End()
	return err
}

// tracePrefix introduces the optional trace-context token on a CONNECT
// line: "CONNECT host:port TP=<48 hex chars>".
const tracePrefix = "TP="

// ParseConnectTrace parses a "CONNECT host:port [TP=<ctx>]" request
// line, returning the target and the propagated trace context (zero when
// absent or malformed — a bad trace token never fails the handshake,
// tracing is best-effort).
func ParseConnectTrace(line string) (string, flowtrace.Context, error) {
	line = strings.TrimSpace(line)
	const prefix = "CONNECT "
	if !strings.HasPrefix(line, prefix) {
		return "", flowtrace.Context{}, fmt.Errorf("relay: malformed request %q", line)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(line, prefix))
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
// ctx bounds the whole preamble exchange: its deadline covers both the
// request write and the reply read, and cancelling it mid-handshake
// force-expires the socket so the caller returns promptly. If ctx carries
// a sampled trace context (flowtrace.NewGoContext), it rides in the
// preamble so the relay's spans join the trace. On error the connection
// is closed.
func Connect(ctx context.Context, conn net.Conn, target string) (net.Conn, error) {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	stopWatch := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(aLongTimeAgo) })
	defer stopWatch()
	var err error
	if tc := flowtrace.FromGoContext(ctx); tc.Sampled {
		_, err = fmt.Fprintf(conn, "CONNECT %s %s%s\n", target, tracePrefix, tc.EncodeText())
	} else {
		_, err = fmt.Fprintf(conn, "CONNECT %s\n", target)
	}
	if err != nil {
		_ = conn.Close()
		return nil, connectAbortErr(ctx, fmt.Errorf("relay: send connect: %w", err))
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		_ = conn.Close()
		return nil, connectAbortErr(ctx, fmt.Errorf("relay: read connect reply: %w", err))
	}
	_ = conn.SetDeadline(time.Time{})
	if strings.TrimSpace(line) != "OK" {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, strings.TrimSpace(line))
	}
	if br.Buffered() > 0 {
		// The destination's first bytes (a server-first banner) came in
		// with the OK: replay them, and keep the TCP half-close surface.
		return pipe.WithReader(conn, br), nil
	}
	return conn, nil
}

// connectAbortErr substitutes the context's error for the I/O error it
// induced: a cancellation-expired deadline surfaces as context.Canceled,
// not as a generic timeout.
func connectAbortErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("relay: connect aborted: %w", ctxErr)
	}
	// The socket deadline mirrors ctx's deadline, and the read can expire
	// a hair before the context's own timer fires: classify that as the
	// deadline too, so callers (pathmon) never see a raw I/O timeout for
	// a context-bounded handshake.
	if _, hasDL := ctx.Deadline(); hasDL && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("relay: connect aborted: %w", context.DeadlineExceeded)
	}
	return err
}
