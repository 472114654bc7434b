package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/gateway"
	"cronets/internal/measure"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// cronetsd's defaults, which every component the benchmark starts uses.
const (
	relayBufferBytes = 256 << 10
	relayMaxConns    = 1024
	relayDialRetries = 2
	relayDialBackoff = 50 * time.Millisecond
	idleTimeout      = 5 * time.Minute
)

// closers releases what a stack started, newest first.
type closers []func() error

func (c *closers) add(f func() error) { *c = append(*c, f) }

func (c *closers) closeAll() {
	for i := len(*c) - 1; i >= 0; i-- {
		_ = (*c)[i]()
	}
	*c = nil
}

// node is one relay and its tracer (nil when untraced).
type node struct {
	r      *relay.Relay
	tracer *flowtrace.Tracer
}

func (n node) addr() string { return n.r.Addr().String() }

// startRelays starts n CONNECT-mode relays on loopback, each with its own
// registry as separate cronetsd processes would have.
func startRelays(cs *closers, n int, traced bool) ([]node, error) {
	out := make([]node, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("relay listen: %w", err)
		}
		reg := obs.NewRegistry()
		pipe.InstrumentPool(reg)
		var tr *flowtrace.Tracer
		if traced {
			tr = flowtrace.New(flowtrace.Config{Node: fmt.Sprintf("relay%d", i), SampleRate: 1, Obs: reg})
		}
		r := relay.New(ln, relay.Config{
			IdleTimeout:      idleTimeout,
			MaxConns:         relayMaxConns,
			BufferBytes:      relayBufferBytes,
			DialRetries:      relayDialRetries,
			DialRetryBackoff: relayDialBackoff,
			Obs:              reg,
			Tracer:           tr,
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = r.Serve()
		}()
		cs.add(func() error {
			err := r.Close()
			<-done
			return err
		})
		out = append(out, node{r: r, tracer: tr})
	}
	return out, nil
}

func addrs(ns []node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.addr()
	}
	return out
}

// gw is a client gateway with its monitor, registry, tracer and, when
// listening, its listener address.
type gw struct {
	g      *gateway.Gateway
	mon    *pathmon.Monitor
	reg    *obs.Registry
	tracer *flowtrace.Tracer
	addr   string
}

// gwConfig describes a gateway whose route is pinned to hops.
type gwConfig struct {
	dest     string
	hops     []string
	poolSize int
	listen   bool
	traced   bool
}

// startGateway builds the gateway side of cronetsd: a monitor over the
// route's relays with the route pinned (the monitor does not probe, so
// the path is fixed and can be asserted), a gateway following it, a
// filled warm pool when poolSize > 0, and optionally a listener.
func startGateway(cs *closers, c gwConfig) (*gw, error) {
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	mon, err := pathmon.New(pathmon.Config{Dest: c.dest, Fleet: c.hops[:1], Obs: reg})
	if err != nil {
		return nil, err
	}
	cs.add(mon.Close)
	mon.Pin(pathmon.MakeRoute(c.hops...))
	var tr *flowtrace.Tracer
	if c.traced {
		tr = flowtrace.New(flowtrace.Config{Node: "gateway", SampleRate: 1, Obs: reg})
	}
	g, err := gateway.New(gateway.Config{
		Dest:        c.dest,
		Monitor:     mon,
		IdleTimeout: idleTimeout,
		BufferBytes: relayBufferBytes,
		PoolSize:    c.poolSize,
		Obs:         reg,
		Tracer:      tr,
	})
	if err != nil {
		return nil, err
	}
	out := &gw{g: g, mon: mon, reg: reg, tracer: tr}
	if c.poolSize > 0 {
		if err := fillPool(g, c.hops[0], c.poolSize); err != nil {
			_ = g.Close()
			return nil, err
		}
	}
	if !c.listen {
		cs.add(g.Close)
		return out, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = g.Close()
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.Serve(ln)
	}()
	cs.add(func() error {
		err := g.Close()
		// A Serve that starts after Close returns without closing its
		// listener, which would leak when a set-up is closed at once.
		_ = ln.Close()
		<-done
		return err
	})
	out.addr = ln.Addr().String()
	return out, nil
}

// fillPool waits until the warm pool holds want connections to relay.
func fillPool(g *gateway.Gateway, relayAddr string, want int) error {
	deadline := time.Now().Add(opDeadline)
	for g.Pool().Idle(relayAddr) < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm pool holds %d of %d connections", g.Pool().Idle(relayAddr), want)
		}
		g.Pool().Fill()
	}
	return nil
}

// startMeasureServer starts the probe destination pathmon measures.
func startMeasureServer(cs *closers) (*measure.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("measure listen: %w", err)
	}
	s := measure.NewServer(ln)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve()
	}()
	cs.add(func() error {
		err := s.Close()
		<-done
		return err
	})
	return s, nil
}

// probeMesh is the probe_mesh control plane: a monitor over a fleet of
// relays toward a measure server.
type probeMesh struct {
	mon *pathmon.Monitor
	reg *obs.Registry
}

// startProbeMesh builds a monitor over relays with bursts off, then runs
// warm rounds so chains exist and every estimator has samples. Chain
// pruning is off: on loopback every relay's RTT is alike, so whether the
// srtt-sum bound cuts a chain is decided by noise, and a round's work
// would vary from run to run. Every round probes the full beam instead.
func startProbeMesh(cs *closers, relays []node, dest string, maxHops, warmRounds int) (*probeMesh, error) {
	reg := obs.NewRegistry()
	mon, err := pathmon.New(pathmon.Config{
		Dest:             dest,
		Fleet:            addrs(relays),
		MaxHops:          maxHops,
		ChainCandidates:  3,
		ChainPruneFactor: -1,
		ProbeCount:       4,
		Obs:              reg,
	})
	if err != nil {
		return nil, err
	}
	cs.add(mon.Close)
	pm := &probeMesh{mon: mon, reg: reg}
	for i := 0; i < warmRounds; i++ {
		if err := pm.round(); err != nil {
			return nil, fmt.Errorf("warm round %d: %w", i, err)
		}
	}
	return pm, nil
}

// round runs one probe round and fails it if any probe failed. (Chains
// the round adds stay unprobed, and so ranked down, until the next one.)
func (pm *probeMesh) round() error {
	before := probeFailures(pm.reg)
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	pm.mon.ProbeRound(ctx)
	cancel()
	if n := probeFailures(pm.reg) - before; n > 0 {
		return fmt.Errorf("%d probe(s) failed", n)
	}
	return nil
}

// counter reads one series from a registry snapshot (0 when absent).
func counter(reg *obs.Registry, name string) int64 {
	v, _ := reg.Snapshot()[name].(int64)
	return v
}

func probeFailures(reg *obs.Registry) int64 {
	snap := reg.Snapshot()
	var n int64
	for _, reason := range []string{"dial", "reject", "timeout"} {
		v, _ := snap[obs.Label("cronets_pathmon_probe_failures_total", "reason", reason)].(int64)
		n += v
	}
	return n
}
