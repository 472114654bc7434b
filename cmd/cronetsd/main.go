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
// ranking objective is pluggable (-objective latency|throughput|composite;
// the throughput axis is fed by -burst-duration bursts on a -burst-every
// cadence), matching CRONets' bulk-transfer-first path selection.
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

// options collects every flag; one struct instead of a dozen positional
// parameters.
type options struct {
	listen      string
	target      string
	idle        time.Duration
	maxConn     int
	bufKB       int
	allow       string
	metricsAddr string
	statsEvery  time.Duration
	dialRetries int
	dialBackoff time.Duration
	traceRate   float64

	// Gateway-mode flags.
	gatewayAddr   string
	fleet         string
	probeInterval time.Duration
	probeTarget   string
	objective     string
	burstDuration time.Duration
	burstEvery    int
	switchMargin  float64
	switchRounds  int
	poolSize      int
	poolIdleTTL   time.Duration
	poolRelays    int
	maxHops       int
	chainCands    int
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", ":9000", "relay address to listen on")
	flag.StringVar(&o.target, "target", "", "fixed forward target (relay: empty = CONNECT mode; gateway: the fronted destination, required)")
	flag.DurationVar(&o.idle, "idle-timeout", 5*time.Minute, "idle connection timeout")
	flag.IntVar(&o.maxConn, "max-conns", 1024, "maximum concurrent relayed connections")
	flag.IntVar(&o.bufKB, "buffer-kb", 256, "largest copy buffer per direction in KiB, relay or gateway (each direction starts at 4 KiB and grows to this on its first full read)")
	flag.StringVar(&o.allow, "allow", "", "comma-separated CIDRs CONNECT targets must fall in (empty = open relay)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /healthz on this address (empty = disabled)")
	flag.DurationVar(&o.statsEvery, "stats-interval", 30*time.Second, "period of the stats summary log line (0 = disabled)")
	flag.IntVar(&o.dialRetries, "dial-retries", 2, "upstream dial retries on transient errors (refused/timeout)")
	flag.DurationVar(&o.dialBackoff, "dial-retry-backoff", 50*time.Millisecond, "initial backoff between upstream dial retries (doubles per attempt)")
	flag.Float64Var(&o.traceRate, "trace-sample-rate", 0, "fraction of flows to trace through internal/flowtrace (0 = tracing off, 1 = every flow)")
	flag.StringVar(&o.gatewayAddr, "gateway-addr", "", "run as a client gateway listening on this address (empty = relay mode)")
	flag.StringVar(&o.fleet, "fleet", "", "comma-separated relay CONNECT endpoints the gateway's monitor probes")
	flag.DurationVar(&o.probeInterval, "probe-interval", 5*time.Second, "gateway path-probe round period")
	flag.StringVar(&o.probeTarget, "probe-target", "", "destination probe endpoint, a measure server (default: -target)")
	flag.StringVar(&o.objective, "objective", "latency", "route-ranking objective: latency, throughput, or composite (throughput/composite need -burst-duration > 0)")
	flag.DurationVar(&o.burstDuration, "burst-duration", 0, "throughput-burst measurement window per route (0 = bursts off)")
	flag.IntVar(&o.burstEvery, "burst-every", 1, "rounds between one route's throughput bursts")
	flag.Float64Var(&o.switchMargin, "switch-margin", 0.1, "fraction a challenger path must beat the incumbent by")
	flag.IntVar(&o.switchRounds, "switch-rounds", 3, "consecutive qualifying rounds before a path switch")
	flag.IntVar(&o.poolSize, "pool-size", 0, "pre-warmed relay connections per relay the gateway keeps (0 = pooling off)")
	flag.DurationVar(&o.poolIdleTTL, "pool-idle-ttl", time.Minute, "retire warm relay connections idle longer than this")
	flag.IntVar(&o.poolRelays, "pool-relays", 2, "number of top-ranked relays the gateway keeps warm")
	flag.IntVar(&o.maxHops, "max-hops", 1, "maximum relay hops per overlay route (values >= 2 enumerate multi-hop chain candidates up to that depth)")
	flag.IntVar(&o.chainCands, "chain-candidates", 3, "top-ranked single-hop relays combined into chain candidates when -max-hops > 1")
	flag.Parse()

	var err error
	if o.gatewayAddr != "" {
		err = runGateway(o)
	} else {
		err = runRelay(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cronetsd:", err)
		os.Exit(1)
	}
}

func runRelay(o options) error {
	var acl *relay.ACL
	if o.allow != "" {
		var err error
		acl, err = relay.NewACL(strings.Split(o.allow, ","), nil)
		if err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	tracer := newTracer(o, "relay", reg)
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", o.listen, err)
	}
	r := relay.New(ln, relay.Config{
		Target:      o.target,
		IdleTimeout: o.idle,
		MaxConns:    o.maxConn,
		BufferBytes: o.bufKB << 10,
		ACL:         acl,
		Obs:         reg,
		Tracer:      tracer,

		DialRetries:      o.dialRetries,
		DialRetryBackoff: o.dialBackoff,
	})
	mode := "split proxy (CONNECT mode)"
	if o.target != "" {
		mode = "forwarder -> " + o.target
	}
	slog.Info("cronetsd listening", "addr", r.Addr().String(), "mode", mode)

	if o.metricsAddr != "" {
		msrv, err := serveMetrics(o.metricsAddr, reg, tracer, nil)
		if err != nil {
			_ = r.Close()
			return err
		}
		defer msrv.Close()
		slog.Info("metrics listening", "addr", msrv.addr,
			"endpoints", "/metrics /metrics.json /debug/vars /debug/events /debug/traces /debug/pprof /healthz")
	}

	stopSummary := make(chan struct{})
	if o.statsEvery > 0 {
		go func() {
			t := time.NewTicker(o.statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					logRelayStats(r, "stats")
				case <-stopSummary:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()

	select {
	case s := <-sig:
		close(stopSummary)
		slog.Info("cronetsd shutting down", "signal", s.String())
		logRelayStats(r, "final stats")
		return r.Close()
	case err := <-done:
		close(stopSummary)
		return err
	}
}

// runGateway runs the client-side control plane: pathmon probing the
// fleet plus a gateway listener fronting the destination.
func runGateway(o options) error {
	if o.target == "" {
		return fmt.Errorf("gateway mode requires -target (the fronted destination)")
	}
	probeTarget := o.probeTarget
	if probeTarget == "" {
		probeTarget = o.target
	}
	var fleet []string
	if o.fleet != "" {
		for _, f := range strings.Split(o.fleet, ",") {
			if f = strings.TrimSpace(f); f != "" {
				fleet = append(fleet, f)
			}
		}
	}
	objective, err := pathmon.ParseObjective(o.objective)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	tracer := newTracer(o, "gateway", reg)

	mon, err := pathmon.New(pathmon.Config{
		Dest:            probeTarget,
		Fleet:           fleet,
		Interval:        o.probeInterval,
		Objective:       objective,
		BurstDuration:   o.burstDuration,
		BurstEvery:      o.burstEvery,
		SwitchMargin:    o.switchMargin,
		SwitchRounds:    o.switchRounds,
		MaxHops:         o.maxHops,
		ChainCandidates: o.chainCands,
		Obs:             reg,
	})
	if err != nil {
		return err
	}
	defer mon.Close()
	mon.Start()

	gw, err := gateway.New(gateway.Config{
		Dest:        o.target,
		Monitor:     mon,
		IdleTimeout: o.idle,
		BufferBytes: o.bufKB << 10,
		Obs:         reg,
		Tracer:      tracer,
		PoolSize:    o.poolSize,
		PoolIdleTTL: o.poolIdleTTL,
		PoolRelays:  o.poolRelays,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.gatewayAddr)
	if err != nil {
		return fmt.Errorf("gateway listen %s: %w", o.gatewayAddr, err)
	}
	slog.Info("cronetsd gateway listening", "addr", ln.Addr().String(),
		"dest", o.target, "probe_target", probeTarget,
		"fleet", strings.Join(fleet, ","), "probe_interval", o.probeInterval.String(),
		"objective", objective.String())

	if o.metricsAddr != "" {
		msrv, err := serveMetrics(o.metricsAddr, reg, tracer, mon)
		if err != nil {
			_ = gw.Close()
			_ = ln.Close()
			return err
		}
		defer msrv.Close()
		slog.Info("metrics listening", "addr", msrv.addr,
			"endpoints", "/metrics /metrics.json /debug/vars /debug/events /debug/traces /debug/paths /debug/pprof /healthz")
	}

	stopSummary := make(chan struct{})
	if o.statsEvery > 0 {
		go func() {
			t := time.NewTicker(o.statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					logGatewayStats(gw, mon, "stats")
				case <-stopSummary:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ln) }()

	select {
	case s := <-sig:
		close(stopSummary)
		slog.Info("cronetsd shutting down", "signal", s.String())
		logGatewayStats(gw, mon, "final stats")
		return gw.Close()
	case err := <-done:
		close(stopSummary)
		return err
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
// plus the current best path.
func logGatewayStats(gw *gateway.Gateway, mon *pathmon.Monitor, msg string) {
	st := gw.Stats()
	best, chosen := mon.Best()
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
func newTracer(o options, node string, reg *obs.Registry) *flowtrace.Tracer {
	if o.traceRate <= 0 {
		return nil
	}
	return flowtrace.New(flowtrace.Config{
		Node:       node,
		SampleRate: o.traceRate,
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
// collector behind the cronets_runtime_* series. A non-nil mon
// additionally mounts its ranked path table at /debug/paths (gateway
// mode; relay mode has no monitor and passes nil).
func serveMetrics(addr string, reg *obs.Registry, tracer *flowtrace.Tracer, mon *pathmon.Monitor) (*metricsServer, error) {
	reg.PublishExpvar("cronets")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/events", reg.EventsHandler())
	mux.Handle("/debug/traces", tracer.Handler())
	if mon != nil {
		mux.Handle("/debug/paths", obs.GETOnly(mon.PathsHandler()))
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
		stopRuntime: obs.StartRuntime(reg, 10*time.Second),
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
