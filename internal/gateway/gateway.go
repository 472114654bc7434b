// Package gateway is the overlay control plane's forwarding half: a
// client-side entry point that consults pathmon on every new connection
// and dials the destination either directly or through the chosen relay
// (the split-TCP CONNECT protocol from internal/relay). Dial failures
// fall back to the next-ranked path, and re-ranking is live: established
// flows stay pinned to the path they were dialed on, only new
// connections follow the table — the CRONets client gateway of Fig. 1.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cronets/internal/chain"
	"cronets/internal/connpool"
	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// Ranker supplies the control-plane route ranking a Gateway follows. It
// is satisfied by *pathmon.Monitor and by *pathmon.View, so the routing
// objective is chosen per listener: hand a bulk listener
// mon.View(pathmon.ObjectiveThroughput) and an interactive listener the
// monitor itself, and both share one probe budget while committing to
// their own best routes (the warm pool follows whichever ranking its
// gateway was given). Tests substitute scripted rankings to exercise the
// dial fallback ladder without sockets.
type Ranker interface {
	// Best returns the hysteresis-committed best route (false before the
	// first usable round).
	Best() (pathmon.Route, bool)
	// Ranked returns the current route table sorted best-first.
	Ranked() []pathmon.RouteStatus
	// Subscribe returns a coalesced ranking-change wakeup channel and an
	// unsubscribe func (the warm pool's filler follows it).
	Subscribe() (<-chan struct{}, func())
}

// Config parameterizes a Gateway. Dest is required.
type Config struct {
	// Dest is the destination address as reachable from the relays — the
	// CONNECT target sent through the overlay.
	Dest string
	// DirectAddr is the client's direct route to Dest (defaults to Dest;
	// emulations point it at a netem proxy).
	DirectAddr string
	// Monitor supplies route rankings: usually the *pathmon.Monitor
	// itself, or one objective's *pathmon.View of it when several
	// listeners share a monitor. With a nil Monitor the gateway always
	// dials direct.
	Monitor Ranker
	// DialTimeout bounds each path attempt (default 10 s).
	DialTimeout time.Duration
	// IdleTimeout closes listener-mode flows with no traffic in either
	// direction (default 5 min; negative disables). Without it a dead
	// peer holds a gateway flow — and its relay slot — forever.
	IdleTimeout time.Duration
	// BufferBytes sizes each direction's pooled copy buffer in listener
	// mode (default pipe.DefaultBufferBytes).
	BufferBytes int
	// MaxAttempts caps how many ranked paths one Dial tries before
	// giving up (default 3). The direct path always stays inside the
	// cap as the guaranteed last resort.
	MaxAttempts int
	// PoolSize enables the warm relay-connection pool when > 0: each
	// warmed relay keeps PoolSize pre-established TCP connections, and
	// relay dials send the CONNECT preamble on a pooled socket —
	// collapsing overlay connection setup from two round trips to one.
	// 0 disables the pool; every relay dial is cold and wire behaviour
	// is unchanged. The pool needs a Monitor (relays come from its
	// ranking).
	PoolSize int
	// PoolIdleTTL bounds the idle age of a pooled connection (default
	// 60 s — keep it under the relay fleet's pre-CONNECT IdleTimeout).
	PoolIdleTTL time.Duration
	// PoolRelays is how many top-ranked relays the pool keeps warm
	// (default 2); the committed best path is always warmed.
	PoolRelays int
	// PoolFillInterval overrides the pool's background re-warm cadence
	// (default 1 s; tests and benchmarks shorten it).
	PoolFillInterval time.Duration
	// Dialer overrides the underlying dialer (tests).
	Dialer relay.Dialer
	// Obs receives gateway metrics and flow events (nil disables
	// instrumentation).
	Obs *obs.Registry
	// Tracer makes the gateway a trace origin: sampled flows get a root
	// span, a path-selection dial span, and their context is propagated
	// to relays in the CONNECT preamble. Nil disables tracing; unsampled
	// flows stay allocation-free.
	Tracer *flowtrace.Tracer
}

// Stats are cumulative gateway counters, safe to read concurrently.
type Stats struct {
	// Accepted counts downstream connections accepted in listener mode.
	Accepted atomic.Int64
	// Active is the number of flows currently being piped.
	Active atomic.Int64
	// DialsDirect counts successful direct-path dials.
	DialsDirect atomic.Int64
	// DialsRelayPooled and DialsRelayCold split successful relay dials
	// by whether the connection came from the warm pool or a cold TCP
	// dial (their sum is the total relay dial count).
	DialsRelayPooled atomic.Int64
	DialsRelayCold   atomic.Int64
	// DialsChain counts successful multi-hop chain dials (the first hop
	// may still have come from the warm pool; chain dials are not split
	// pooled/cold).
	DialsChain atomic.Int64
	// Fallbacks counts dials that succeeded only on a non-first-choice
	// path.
	Fallbacks atomic.Int64
	// DialFailures counts Dial calls that exhausted every candidate.
	DialFailures atomic.Int64
	// AcceptErrors counts transient listener Accept failures survived
	// with backoff in listener mode.
	AcceptErrors atomic.Int64
	// BytesUp and BytesDown count piped bytes in listener mode.
	BytesUp   atomic.Int64
	BytesDown atomic.Int64
}

// Gateway dials (and optionally fronts) a fixed destination over the
// current best overlay path.
type Gateway struct {
	cfg     Config
	stats   *Stats
	scope   *obs.Scope
	flowDur *obs.Histogram
	pool    *connpool.Pool // nil when pooling is disabled

	// srv owns listener mode's accept loop and shutdown; flows dial under
	// its context, so Close aborts dials in flight.
	srv pipe.Server
}

// New creates a Gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Dest == "" {
		return nil, errors.New("gateway: Config.Dest is required")
	}
	if cfg.DirectAddr == "" {
		cfg.DirectAddr = cfg.Dest
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	} else if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	g := &Gateway{cfg: cfg, stats: &Stats{}}
	if cfg.PoolSize > 0 && cfg.Monitor != nil {
		g.pool = connpool.New(connpool.Config{
			SizePerRelay: cfg.PoolSize,
			TopK:         cfg.PoolRelays,
			IdleTTL:      cfg.PoolIdleTTL,
			FillInterval: cfg.PoolFillInterval,
			DialTimeout:  cfg.DialTimeout,
			Ranker:       cfg.Monitor,
			Dialer:       cfg.Dialer,
			Obs:          cfg.Obs,
		})
	}
	g.instrument(cfg.Obs)
	g.srv.OnAcceptError = func(err error, backoff time.Duration) {
		g.stats.AcceptErrors.Add(1)
		g.scope.Logger().Warn("gateway accept failed, retrying", "err", err, "backoff", backoff.String())
	}
	return g, nil
}

// Pool returns the gateway's warm relay-connection pool, or nil when
// pooling is disabled.
func (g *Gateway) Pool() *connpool.Pool { return g.pool }

func (g *Gateway) instrument(reg *obs.Registry) {
	g.scope = reg.Scope("gateway")
	g.flowDur = reg.Histogram("cronets_gateway_flow_duration_seconds",
		"Wall-clock lifetime of finished listener-mode flows.", obs.LatencyBuckets)
	reg.CounterFunc("cronets_gateway_accepted_total",
		"Downstream connections accepted in listener mode.", g.stats.Accepted.Load)
	reg.GaugeFunc("cronets_gateway_active",
		"Flows currently being piped.", g.stats.Active.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_dials_total", "path", "direct"),
		"Successful destination dials by path kind.", g.stats.DialsDirect.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_dials_total", "path", "relay_pooled"),
		"Successful destination dials by path kind.", g.stats.DialsRelayPooled.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_dials_total", "path", "relay_cold"),
		"Successful destination dials by path kind.", g.stats.DialsRelayCold.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_dials_total", "path", "chain"),
		"Successful destination dials by path kind.", g.stats.DialsChain.Load)
	reg.CounterFunc("cronets_gateway_fallbacks_total",
		"Dials that succeeded only on a non-first-choice path.", g.stats.Fallbacks.Load)
	reg.CounterFunc("cronets_gateway_dial_failures_total",
		"Dials that exhausted every candidate path.", g.stats.DialFailures.Load)
	reg.CounterFunc("cronets_gateway_accept_errors_total",
		"Transient listener accept failures survived with backoff.", g.stats.AcceptErrors.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_bytes_total", "dir", "up"),
		"Piped bytes by direction (up = client to destination).", g.stats.BytesUp.Load)
	reg.CounterFunc(obs.Label("cronets_gateway_bytes_total", "dir", "down"),
		"Piped bytes by direction (up = client to destination).", g.stats.BytesDown.Load)
}

// Stats returns the gateway's counters.
func (g *Gateway) Stats() *Stats { return g.stats }

// candidates returns the ordered list of routes a dial should try: the
// hysteresis-committed best route first, then the remaining usable routes
// score-ordered. Without a monitor (or before its first round) it is the
// direct route alone.
func (g *Gateway) candidates() []pathmon.Route {
	if g.cfg.Monitor == nil {
		return []pathmon.Route{pathmon.Direct}
	}
	best, ok := g.cfg.Monitor.Best()
	if !ok {
		return []pathmon.Route{pathmon.Direct}
	}
	out := []pathmon.Route{best}
	haveDirect := best.IsDirect()
	for _, st := range g.cfg.Monitor.Ranked() {
		if st.Route == best || st.Down {
			continue
		}
		out = append(out, st.Route)
		haveDirect = haveDirect || st.Route.IsDirect()
	}
	if !haveDirect {
		// The direct Internet path needs no overlay cooperation; keep it
		// as the last resort even when probes call it down.
		out = append(out, pathmon.Direct)
	}
	return out
}

// Dial opens one connection to the destination over the current best
// route, falling back to the next-ranked routes on dial failure. It
// returns the connection and the route it actually took.
//
// Tracing: with a Tracer configured, Dial records a gateway.dial span
// covering route selection and every attempt. The span parents under the
// flow context carried in ctx (flowtrace.NewGoContext) or, absent one,
// starts a new trace subject to the sampling rate; relay attempts
// propagate the span's context in the CONNECT preamble.
func (g *Gateway) Dial(ctx context.Context) (net.Conn, pathmon.Route, error) {
	span := g.cfg.Tracer.Start("gateway.dial", flowtrace.FromGoContext(ctx))
	defer span.End()
	if span != nil {
		ctx = flowtrace.NewGoContext(ctx, span.Context())
	}
	cands := g.candidates()
	if len(cands) > g.cfg.MaxAttempts {
		// Truncate to the attempt cap, but never slice off the direct
		// path: candidates() appends it as the guaranteed last resort,
		// and with >= MaxAttempts ranked relay paths a plain cut would
		// silently drop it — a relay-fleet outage would then fail flows
		// that direct would have served.
		kept := cands[:g.cfg.MaxAttempts:g.cfg.MaxAttempts]
		hasDirect := false
		for _, p := range kept {
			if p.IsDirect() {
				hasDirect = true
				break
			}
		}
		if !hasDirect {
			kept[len(kept)-1] = pathmon.Direct
		}
		cands = kept
	}
	var lastErr error
	for i, p := range cands {
		conn, pooled, err := g.dialRoute(ctx, p)
		if err != nil {
			lastErr = err
			g.scope.Event(obs.EventDial, fmt.Sprintf("fail %s: %v", p, err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		detail := p.String()
		if p.IsDirect() {
			g.stats.DialsDirect.Add(1)
		} else if p.IsChain() {
			g.stats.DialsChain.Add(1)
			if pooled {
				detail += " (pooled)"
			}
			g.scope.Event(obs.EventChainDial, detail)
		} else if pooled {
			g.stats.DialsRelayPooled.Add(1)
			detail += " (pooled)"
		} else {
			g.stats.DialsRelayCold.Add(1)
		}
		if i > 0 {
			g.stats.Fallbacks.Add(1)
			g.scope.Event(obs.EventFallback,
				fmt.Sprintf("%s after %d failed path(s)", p, i))
		} else {
			g.scope.Event(obs.EventDial, "ok "+detail)
		}
		if span != nil {
			span.SetDetail(detail)
		}
		return conn, p, nil
	}
	g.stats.DialFailures.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no candidate paths")
	}
	if span != nil {
		span.SetDetail(fmt.Sprintf("failed after %d route(s)", len(cands)))
	}
	return nil, pathmon.Route{}, fmt.Errorf("gateway: all %d route(s) failed: %w", len(cands), lastErr)
}

// dialRoute opens one connection over a specific route — the single dial
// seam for every depth. The zero-hop route is a plain direct dial; any
// deeper route walks its hop list with one CONNECT per hop (one hop is
// exactly the classic single-relay path). Overlay routes first try a
// warm pooled socket to the first hop — sending the CONNECT preamble on
// an already-open connection skips the TCP-handshake round trip — and
// cold dial when the pool misses (or a checked-out socket dies mid
// handshake), so behaviour degrades to exactly the unpooled route.
func (g *Gateway) dialRoute(ctx context.Context, r pathmon.Route) (conn net.Conn, pooled bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.DialTimeout)
	defer cancel()
	hops := r.Hops()
	if len(hops) == 0 {
		conn, err = g.cfg.Dialer.DialContext(ctx, "tcp", g.cfg.DirectAddr)
		return conn, false, err
	}
	copts := chain.Options{Dialer: g.cfg.Dialer, Tracer: g.cfg.Tracer}
	if g.pool != nil {
		if warm, ok := g.pool.Get(hops[0]); ok {
			if conn, err = chain.Connect(ctx, warm, hops, g.cfg.Dest, copts); err == nil {
				return conn, true, nil
			}
			// The warm leg died between health check and handshake: fall
			// through to a cold dial rather than failing the flow.
			g.scope.Event(obs.EventDial,
				fmt.Sprintf("pooled leg to %s died, cold dialing: %v", hops[0], err))
		}
	}
	conn, err = chain.Dial(ctx, hops, g.cfg.Dest, copts)
	return conn, false, err
}

// Serve runs listener mode: every accepted connection is dialed through
// Dial and piped to the destination. Established flows keep their path;
// re-ranking only steers subsequent accepts. It always returns a non-nil
// error (pipe.ErrServerClosed after a clean shutdown). On a gateway that
// is already closed it closes ln, as net/http.Server.Serve does.
func (g *Gateway) Serve(ln net.Listener) error {
	return g.srv.Serve(ln, g.admit)
}

// admit gives every accepted connection a flow.
func (g *Gateway) admit(net.Conn) func(net.Conn) {
	g.stats.Accepted.Add(1)
	return g.handle
}

// Addr returns the listener address (nil outside listener mode).
func (g *Gateway) Addr() net.Addr { return g.srv.Addr() }

// Close stops the listener (if any), aborts dials in flight, closes live
// flows, and retires the warm connection pool.
func (g *Gateway) Close() error {
	err := g.srv.Close()
	if g.pool != nil {
		_ = g.pool.Close()
	}
	return err
}

// handle pipes one accepted connection to the destination. Each flow is
// a trace root: the sampling decision happens here, and every downstream
// hop's spans parent (transitively) under this flow span.
func (g *Gateway) handle(down net.Conn) {
	flow := g.cfg.Tracer.Start("gateway.flow", flowtrace.Context{})
	defer flow.End()
	ctx := flowtrace.NewGoContext(g.srv.Context(), flow.Context())

	up, route, err := g.Dial(ctx)
	if err != nil {
		flow.SetDetail("dial failed")
		g.scope.Logger().Warn("gateway dial failed", "err", err)
		return
	}
	if !g.srv.Track(up) {
		flow.SetDetail("closed during dial")
		return
	}
	defer g.srv.Untrack(up)
	if flow != nil {
		// Route.String() already carries the "via" prefix for overlay
		// routes ("direct", "via a", "via a>b>c").
		flow.SetDetail(route.String())
	}

	g.stats.Active.Add(1)
	defer g.stats.Active.Add(-1)

	// The shared data-plane loop: pooled buffers, live byte counters,
	// half-close propagation, and the idle timeout a dead peer would
	// otherwise evade forever.
	opts := pipe.Options{
		BufferBytes: g.cfg.BufferBytes,
		IdleTimeout: g.cfg.IdleTimeout,
		OnIdle: func() {
			g.scope.Event(obs.EventIdleClose, down.RemoteAddr().String())
		},
		CountAToB: &g.stats.BytesUp,
		CountBToA: &g.stats.BytesDown,
	}
	if flow != nil {
		// TTFB at the gateway: the first byte the destination sends back
		// toward the client, measured from flow start (which includes
		// path selection and the overlay dial).
		opts.OnFirstByte = func(dir pipe.Dir) {
			if dir == pipe.BToA {
				flow.MarkFirstByte()
			}
		}
	}
	res, err := pipe.Bidirectional(context.Background(), down, up, opts)
	flow.AddBytes(res.AToB + res.BToA)
	g.flowDur.ObserveDuration(res.Duration)
	if err != nil {
		g.scope.Logger().Debug("gateway flow ended with error", "err", err)
	}
}
