// Command cronetsd runs a CRONets overlay node over real sockets, in one
// of two roles:
//
// Relay (default): either a fixed-target forwarder (one branch office
// pinned to another) or a CONNECT-mode split-TCP proxy that terminates
// the client's connection and opens its own toward the requested
// destination.
//
// Gateway (-gateway-addr): the client-side control plane. A pathmon
// monitor continuously probes the direct path and every relay in -fleet
// toward -target, and the gateway listener fronts -target, steering each
// new connection onto the current best path (direct or via the best
// relay) with fallback to the next-ranked path on dial failure. The
// gateway follows the monitor's view for one ranking objective
// (-objective latency|throughput|composite; the throughput axis is fed by
// -burst-duration bursts on a -burst-every cadence), matching CRONets'
// bulk-transfer-first path selection.
//
// Usage:
//
//	cronetsd -listen :9000                      # CONNECT-mode split proxy
//	cronetsd -listen :9000 -target 10.0.0.2:443 # fixed-target forwarder
//	cronetsd -listen :9000 -metrics-addr :9090  # + observability endpoints
//	cronetsd -gateway-addr :8080 -target dst:7 -fleet r1:9000,r2:9000 \
//	    -probe-interval 5s                      # client gateway
//
// With -metrics-addr set, the node serves /metrics (Prometheus text),
// /metrics.json (JSON snapshot), /debug/vars (expvar JSON including the
// registry under "cronets"), /debug/events (flow-event ring),
// /debug/traces (assembled flow traces when -trace-sample-rate > 0),
// /debug/pprof/* (runtime profiles), and /healthz. Runtime telemetry
// (goroutines, heap, GC pauses) is sampled every 10 s into the
// cronets_runtime_* series.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/gateway"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// node is one cronetsd invocation: the settings the command reads itself,
// and the Config of each component it starts, with each flag bound
// straight to the field it sets.
type node struct {
	listen      string
	gatewayAddr string
	metricsAddr string
	statsEvery  time.Duration
	traceRate   float64
	objective   pathmon.Objective

	relay relay.Config
	mon   pathmon.Config
	gw    gateway.Config
}

// parseFlags reads the command line into a node. -target, -idle-timeout
// and -buffer-kb serve both roles, so the gateway's Config copies them
// from the relay's after parsing.
func parseFlags(args []string) (*node, error) {
	n := &node{}
	fs := flag.NewFlagSet("cronetsd", flag.ContinueOnError)
	fs.StringVar(&n.listen, "listen", ":9000", "relay address to listen on")
	fs.StringVar(&n.relay.Target, "target", "", "fixed forward target (relay: empty = CONNECT mode; gateway: the fronted destination, required)")
	fs.DurationVar(&n.relay.IdleTimeout, "idle-timeout", 5*time.Minute, "idle connection timeout, relay or gateway (negative disables)")
	fs.IntVar(&n.relay.MaxConns, "max-conns", 1024, "maximum concurrent relayed connections")
	bufKB := fs.Int("buffer-kb", 256, "largest copy buffer per direction in KiB, relay or gateway (each direction starts at 4 KiB and grows to this on its first full read)")
	fs.Func("allow", "comma-separated CIDRs CONNECT targets must fall in (empty = open relay)", func(s string) (err error) {
		if s != "" {
			n.relay.ACL, err = relay.NewACL(strings.Split(s, ","), nil)
		}
		return err
	})
	fs.StringVar(&n.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /healthz on this address (empty = disabled)")
	fs.DurationVar(&n.statsEvery, "stats-interval", 30*time.Second, "period of the stats summary log line (0 = disabled)")
	fs.IntVar(&n.relay.DialRetries, "dial-retries", 2, "upstream dial retries on transient errors (refused/timeout)")
	fs.DurationVar(&n.relay.DialRetryBackoff, "dial-retry-backoff", 50*time.Millisecond, "initial backoff between upstream dial retries (doubles per attempt)")
	fs.Float64Var(&n.traceRate, "trace-sample-rate", 0, "fraction of flows to trace through internal/flowtrace (0 = tracing off, 1 = every flow)")
	fs.StringVar(&n.gatewayAddr, "gateway-addr", "", "run as a client gateway listening on this address (empty = relay mode)")
	fs.Func("fleet", "comma-separated relay CONNECT endpoints the gateway's monitor probes", func(s string) error {
		n.mon.Fleet = nil
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				n.mon.Fleet = append(n.mon.Fleet, f)
			}
		}
		return nil
	})
	fs.DurationVar(&n.mon.Interval, "probe-interval", 5*time.Second, "gateway path-probe round period")
	fs.StringVar(&n.mon.Dest, "probe-target", "", "destination probe endpoint, a measure server (default: -target)")
	fs.Func("objective", "route-ranking objective: latency (the default), throughput (needs -burst-duration > 0), or composite (ranks by latency until bursts measure throughput)", func(s string) (err error) {
		n.objective, err = pathmon.ParseObjective(s)
		return err
	})
	fs.DurationVar(&n.mon.BurstDuration, "burst-duration", 0, "throughput-burst measurement window per route (0 = bursts off)")
	fs.IntVar(&n.mon.BurstEvery, "burst-every", 1, "rounds between one route's throughput bursts")
	fs.Float64Var(&n.mon.SwitchMargin, "switch-margin", 0.1, "fraction a challenger path must beat the incumbent by")
	fs.IntVar(&n.mon.SwitchRounds, "switch-rounds", 3, "consecutive qualifying rounds before a path switch")
	fs.IntVar(&n.gw.PoolSize, "pool-size", 0, "pre-warmed relay connections per relay the gateway keeps (0 = pooling off)")
	fs.IntVar(&n.mon.MaxHops, "max-hops", 1, "maximum relay hops per overlay route (values >= 2 enumerate multi-hop chain candidates up to that depth)")
	fs.IntVar(&n.mon.ChainCandidates, "chain-candidates", 3, "top-ranked single-hop relays combined into chain candidates when -max-hops > 1")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	n.relay.BufferBytes = *bufKB << 10
	n.gw.Dest = n.relay.Target
	n.gw.IdleTimeout = n.relay.IdleTimeout
	n.gw.BufferBytes = n.relay.BufferBytes
	if n.mon.Dest == "" {
		n.mon.Dest = n.relay.Target
	}
	return n, nil
}

func main() {
	n, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and usage
	}
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		slog.Info("cronetsd shutting down", "signal", s.String())
		close(stop)
	}()
	if err := n.run(stop); err != nil {
		fmt.Fprintln(os.Stderr, "cronetsd:", err)
		os.Exit(1)
	}
}

// run serves the node's role until stop closes.
func (n *node) run(stop <-chan struct{}) error {
	if n.gatewayAddr != "" {
		return n.runGateway(stop)
	}
	return n.runRelay(stop)
}

func (n *node) runRelay(stop <-chan struct{}) error {
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	n.relay.Obs = reg
	n.relay.Tracer = n.newTracer("relay", reg)
	ln, err := net.Listen("tcp", n.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", n.listen, err)
	}
	r := relay.New(ln, n.relay)
	mode := "split proxy (CONNECT mode)"
	if n.relay.Target != "" {
		mode = "forwarder -> " + n.relay.Target
	}
	slog.Info("cronetsd listening", "addr", r.Addr().String(), "mode", mode)

	if n.metricsAddr != "" {
		msrv, err := serveMetrics(n.metricsAddr, reg, n.relay.Tracer, nil)
		if err != nil {
			_ = r.Close()
			return err
		}
		defer msrv.Close()
		slog.Info("metrics listening", "addr", msrv.addr,
			"endpoints", "/metrics /metrics.json /debug/vars /debug/events /debug/traces /debug/pprof /healthz")
	}
	return serveUntil(stop, n.statsEvery, r.Serve, r.Close,
		func(msg string) { logRelayStats(r, msg) })
}

// runGateway runs the client-side control plane: pathmon probing the
// fleet plus a gateway listener fronting the destination, steered by the
// monitor's view for -objective.
func (n *node) runGateway(stop <-chan struct{}) error {
	if n.gw.Dest == "" {
		return fmt.Errorf("gateway mode requires -target (the fronted destination)")
	}
	if n.objective == pathmon.ObjectiveThroughput && n.mon.BurstDuration <= 0 {
		// Without bursts every route scores alike under throughput, so no
		// challenger could ever clear the switch margin.
		return errors.New("-objective throughput needs -burst-duration > 0 (pathmon BurstDuration)")
	}
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	tracer := n.newTracer("gateway", reg)

	n.mon.Obs = reg
	mon, err := pathmon.New(n.mon)
	if err != nil {
		return err
	}
	defer mon.Close()
	view := mon.View(n.objective)
	mon.Start()

	n.gw.Monitor = view
	n.gw.Obs = reg
	n.gw.Tracer = tracer
	gw, err := gateway.New(n.gw)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", n.gatewayAddr)
	if err != nil {
		_ = gw.Close()
		return fmt.Errorf("gateway listen %s: %w", n.gatewayAddr, err)
	}
	slog.Info("cronetsd gateway listening", "addr", ln.Addr().String(),
		"dest", n.gw.Dest, "probe_target", n.mon.Dest,
		"fleet", strings.Join(n.mon.Fleet, ","), "probe_interval", n.mon.Interval.String(),
		"objective", n.objective.String())

	if n.metricsAddr != "" {
		msrv, err := serveMetrics(n.metricsAddr, reg, tracer, view)
		if err != nil {
			_ = gw.Close()
			_ = ln.Close()
			return err
		}
		defer msrv.Close()
		slog.Info("metrics listening", "addr", msrv.addr,
			"endpoints", "/metrics /metrics.json /debug/vars /debug/events /debug/traces /debug/paths /debug/pprof /healthz")
	}
	return serveUntil(stop, n.statsEvery, func() error { return gw.Serve(ln) }, gw.Close,
		func(msg string) { logGatewayStats(gw, view, msg) })
}

// serveUntil is both roles' lifecycle: it runs serve, logs a "stats"
// line through logStats every statsEvery (0 disables them), and returns
// serve's error if serve stops first. When stop closes first it logs the
// "final stats" line and returns closeFn's error.
func serveUntil(stop <-chan struct{}, statsEvery time.Duration, serve, closeFn func() error, logStats func(msg string)) error {
	done := make(chan error, 1)
	go func() { done <- serve() }()
	var tick <-chan time.Time
	if statsEvery > 0 {
		t := time.NewTicker(statsEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			logStats("stats")
		case <-stop:
			logStats("final stats")
			return closeFn()
		case err := <-done:
			return err
		}
	}
}

// logRelayStats emits one slog summary line from the relay's counters.
func logRelayStats(r *relay.Relay, msg string) {
	st := r.Stats()
	slog.Info(msg,
		"accepted", st.Accepted.Load(),
		"active", st.Active.Load(),
		"bytes_up", st.BytesUp.Load(),
		"bytes_down", st.BytesDown.Load(),
		"errors", st.Errors.Load(),
		"rejected", st.Rejected.Load(),
		"overloaded", st.Overloaded.Load(),
		"dial_retries", st.DialRetries.Load(),
	)
}

// logGatewayStats emits one slog summary line from the gateway's counters
// plus the current best path of the view it follows.
func logGatewayStats(gw *gateway.Gateway, view *pathmon.View, msg string) {
	st := gw.Stats()
	best, chosen := view.Best()
	bestName := "(none)"
	if chosen {
		bestName = best.String()
	}
	slog.Info(msg,
		"best_path", bestName,
		"accepted", st.Accepted.Load(),
		"active", st.Active.Load(),
		"dials_direct", st.DialsDirect.Load(),
		"dials_relay_pooled", st.DialsRelayPooled.Load(),
		"dials_relay_cold", st.DialsRelayCold.Load(),
		"dials_chain", st.DialsChain.Load(),
		"fallbacks", st.Fallbacks.Load(),
		"dial_failures", st.DialFailures.Load(),
		"bytes_up", st.BytesUp.Load(),
		"bytes_down", st.BytesDown.Load(),
	)
}

// newTracer builds the node's flow tracer, or nil when tracing is off
// (every instrumented component treats a nil tracer as a no-op).
func (n *node) newTracer(name string, reg *obs.Registry) *flowtrace.Tracer {
	if n.traceRate <= 0 {
		return nil
	}
	return flowtrace.New(flowtrace.Config{
		Node:       name,
		SampleRate: n.traceRate,
		Obs:        reg,
	})
}

// metricsServer is the observability HTTP listener.
type metricsServer struct {
	addr        string
	srv         *http.Server
	ln          net.Listener
	stopRuntime func()
}

// serveMetrics starts the observability endpoints on addr: metrics,
// events, flow traces, pprof profiles, and the sampled runtime-stats
// collector behind the cronets_runtime_* series. A non-nil view
// additionally mounts its ranked path table at /debug/paths (gateway
// mode; relay mode has no monitor and passes nil).
func serveMetrics(addr string, reg *obs.Registry, tracer *flowtrace.Tracer, view *pathmon.View) (*metricsServer, error) {
	reg.PublishExpvar("cronets")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/events", reg.EventsHandler())
	mux.Handle("/debug/traces", tracer.Handler())
	if view != nil {
		mux.Handle("/debug/paths", obs.GETOnly(view.PathsHandler()))
	}
	// The binary never touches http.DefaultServeMux, so the pprof
	// endpoints are mounted explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	m := &metricsServer{
		addr:        ln.Addr().String(),
		srv:         &http.Server{Handler: mux},
		ln:          ln,
		stopRuntime: obs.StartRuntime(reg),
	}
	go func() {
		if err := m.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			slog.Error("metrics server failed", "err", err)
		}
	}()
	return m, nil
}

func (m *metricsServer) Close() {
	m.stopRuntime()
	_ = m.srv.Close()
}
