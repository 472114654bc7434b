package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"sort"

	"cronets/internal/chain"
	"cronets/internal/flowtrace"
	"cronets/internal/gateway"
)

// Workload sizes.
const (
	reqBytes  = 64      // flows_1hop and rr64_1hop request and reply
	bulkBytes = 8 << 20 // one bulk_3hop download
	// rrBatch is how many request-reply exchanges one rr64_1hop op makes.
	// A single exchange takes about 25 µs, and the p99 of so short an op
	// jumped between runs by a third with p50 unchanged; over a batch, a
	// rare slow exchange moves the op's time by a few percent.
	rrBatch = 16
	// payloadPool is the seeded byte pool requests are cut from.
	payloadPool = 1 << 20
	fleetSize   = 16 // probe_mesh relays
	meshHops    = 3
	warmRounds  = 3
)

// instance is one set-up workload, ready to run ops.
type instance struct {
	op func(i int) error
	// check returns the correctness failures visible only after the
	// ops, such as the route the gateway took; ops is how many ops ran.
	check func(ops int) []string
	// detail adds workload counters to the report.
	detail func(d map[string]any)
	// traffic says what the ops cross.
	traffic string
	// tracers are the program's flowtrace tracers, when traced.
	tracers []*flowtrace.Tracer
	cs      closers
}

func (in *instance) close() { in.cs.closeAll() }

// env is what every workload's set-up reads: the run's seed, inputs and
// options.
type env struct {
	seed    int64
	data    inputs
	corrupt bool
	traced  bool     // trace the program (flowtrace) and record spans
	spans   *spanLog // nil records nothing
}

// inputs are a run's seeded inputs. A run makes them once, before it
// times its set-ups, so setup_s covers only the program's set-up.
type inputs struct {
	reqs    requests // the pool requests are cut from
	payload []byte   // the bulk download, when the run needs one
	crc     uint32   // CRC32C of payload
}

func newInputs(seed int64, bulk bool) inputs {
	in := inputs{reqs: requests(seededBytes(seed, payloadPool))}
	if bulk {
		in.payload = seededBytes(seed, bulkBytes)
		in.crc = crc32.Checksum(in.payload, castagnoli)
	}
	return in
}

type workloadDef struct {
	name  string
	setup func(e env) (*instance, error)
	// bulk says the workload downloads the bulk payload.
	bulk bool
	// lazy says the program fills its caches inside the ops, as the
	// simulator computes its route tables, so the run has no warm-up and
	// that cost is measured.
	lazy bool
}

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// give the reason for each.
var workloads = []workloadDef{
	{name: "flows_1hop", setup: setupFlows},
	{name: "rr64_1hop", setup: setupRR64},
	{name: "bulk_3hop", setup: setupBulk, bulk: true},
	{name: "probe_mesh", setup: setupProbeMesh},
	{name: "sim_reallife", setup: setupSim, lazy: true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	sort.Strings(out)
	return out
}

// requests cuts op i's request from a seeded pool, so every op sends
// different bytes.
type requests []byte

func (r requests) at(i, n int) []byte {
	off := (i * 61) % (len(r) - n)
	return r[off : off+n]
}

// setupFlows: every op opens a flow to the gateway listener, sends the
// echo header and a 64 B request in one write, reads the 64 B reply and
// closes. The gateway's warm pool holds 4 connections to the pinned relay.
func setupFlows(e env) (*instance, error) {
	in := &instance{traffic: "loopback"}
	d, err := startDest(nil, e.corrupt)
	if err != nil {
		return nil, err
	}
	in.cs.add(d.close)
	relays, err := startRelays(&in.cs, 1, e.traced)
	if err != nil {
		in.close()
		return nil, err
	}
	g, err := startGateway(&in.cs, gwConfig{dest: d.addr(), hops: addrs(relays), poolSize: 4, listen: true, traced: e.traced})
	if err != nil {
		in.close()
		return nil, err
	}
	in.tracers = tracersOf(g, relays)
	msg := make([]byte, hdrLen+reqBytes)
	copy(msg, header(modeEcho, reqBytes))
	reply := make([]byte, reqBytes)
	in.op = func(i int) error {
		copy(msg[hdrLen:], e.data.reqs.at(i, reqBytes))
		return flowOp(e.spans, i, "flows_1hop", func() (net.Conn, error) { return net.Dial("tcp", g.addr) }, msg, reply)
	}
	in.check = func(ops int) []string {
		st := g.g.Stats()
		relayDials := st.DialsRelayPooled.Load() + st.DialsRelayCold.Load()
		return routeFailures(st, int64(ops), relayDials, "1-hop relay")
	}
	in.detail = func(m map[string]any) {
		gatewayDetail(m, g)
		m["relay_errors"] = relays[0].r.Stats().Errors.Load()
	}
	return in, nil
}

// flowOp is one flows op over a connection from dial: send msg, check
// the echoed reply, close.
func flowOp(l *spanLog, i int, name string, dial func() (net.Conn, error), msg, reply []byte) error {
	l.begin(i, name)
	defer l.end()
	l.begin(i, "dial")
	c, err := dial()
	l.end()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetDeadline(deadline()); err != nil {
		return err
	}
	l.begin(i, "request_reply")
	err = echoOnce(c, msg, reply)
	l.end()
	return err
}

// routeFailures asserts from the gateway's counters that every one of
// ops dials took the pinned route (counted in want) with no fallback.
func routeFailures(st *gateway.Stats, ops, want int64, route string) []string {
	var out []string
	if want != ops {
		out = append(out, fmt.Sprintf("%d of %d dials took the pinned %s route", want, ops, route))
	}
	if n := st.Fallbacks.Load(); n != 0 {
		out = append(out, fmt.Sprintf("%d dials fell back off the pinned route", n))
	}
	if n := st.DialFailures.Load(); n != 0 {
		out = append(out, fmt.Sprintf("%d dials failed", n))
	}
	return out
}

func tracersOf(g *gw, relays []node) []*flowtrace.Tracer {
	out := []*flowtrace.Tracer{g.tracer}
	for _, n := range relays {
		out = append(out, n.tracer)
	}
	return out
}

func gatewayDetail(m map[string]any, g *gw) {
	st := g.g.Stats()
	m["gateway_dials_relay_pooled"] = st.DialsRelayPooled.Load()
	m["gateway_dials_relay_cold"] = st.DialsRelayCold.Load()
	m["gateway_dials_chain"] = st.DialsChain.Load()
	m["gateway_dials_direct"] = st.DialsDirect.Load()
	m["gateway_fallbacks"] = st.Fallbacks.Load()
	m["gateway_dial_failures"] = st.DialFailures.Load()
}

// setupRR64: one persistent flow through the gateway listener and a
// pinned 1-hop relay (no pool); every op makes rrBatch exchanges, each
// writing 64 B and reading the echo. A failed exchange ends the op and
// reopens the flow.
func setupRR64(e env) (*instance, error) {
	in := &instance{traffic: "loopback"}
	d, err := startDest(nil, e.corrupt)
	if err != nil {
		return nil, err
	}
	in.cs.add(d.close)
	relays, err := startRelays(&in.cs, 1, e.traced)
	if err != nil {
		in.close()
		return nil, err
	}
	g, err := startGateway(&in.cs, gwConfig{dest: d.addr(), hops: addrs(relays), listen: true, traced: e.traced})
	if err != nil {
		in.close()
		return nil, err
	}
	in.tracers = tracersOf(g, relays)
	rr := &rrFlow{dial: func(int) (net.Conn, error) { return net.Dial("tcp", g.addr) }}
	in.cs.add(rr.close)
	flows := 0
	in.op = func(i int) error {
		for k := 0; k < rrBatch; k++ {
			if rr.c == nil {
				flows++
			}
			if err := rr.op(e.spans, i, "rr64_1hop", e.data.reqs.at(i*rrBatch+k, reqBytes)); err != nil {
				return err
			}
		}
		return nil
	}
	in.check = func(int) []string {
		st := g.g.Stats()
		return routeFailures(st, int64(flows), st.DialsRelayPooled.Load()+st.DialsRelayCold.Load(), "1-hop relay")
	}
	in.detail = func(m map[string]any) {
		gatewayDetail(m, g)
		m["flows_opened"] = flows
	}
	return in, nil
}

// rrFlow is a persistent echo flow, reopened after a failure.
type rrFlow struct {
	dial  func(i int) (net.Conn, error)
	c     net.Conn
	reply []byte
}

func (f *rrFlow) op(l *spanLog, i int, name string, req []byte) error {
	l.begin(i, name)
	defer l.end()
	if f.c == nil {
		c, err := f.dial(i)
		if err != nil {
			return err
		}
		if _, err := c.Write(header(modeEcho, len(req))); err != nil {
			_ = c.Close()
			return err
		}
		f.c, f.reply = c, make([]byte, len(req))
	}
	err := f.c.SetDeadline(deadline())
	if err == nil {
		err = echoOnce(f.c, req, f.reply)
	}
	if err != nil {
		_ = f.close()
	}
	return err
}

func (f *rrFlow) close() error {
	if f.c == nil {
		return nil
	}
	err := f.c.Close()
	f.c = nil
	return err
}

// setupBulk: every op opens a flow to the gateway listener, whose pinned
// route is a 3-hop chain (no pool), downloads 8 MiB of seeded payload and
// checks its CRC32C.
func setupBulk(e env) (*instance, error) {
	in := &instance{traffic: "loopback"}
	d, err := startDest(e.data.payload, e.corrupt)
	if err != nil {
		return nil, err
	}
	in.cs.add(d.close)
	relays, err := startRelays(&in.cs, 3, e.traced)
	if err != nil {
		in.close()
		return nil, err
	}
	g, err := startGateway(&in.cs, gwConfig{dest: d.addr(), hops: addrs(relays), listen: true, traced: e.traced})
	if err != nil {
		in.close()
		return nil, err
	}
	in.tracers = tracersOf(g, relays)
	buf := make([]byte, relayBufferBytes)
	in.op = func(i int) error {
		return bulkOp(e.spans, i, "bulk_3hop", func() (net.Conn, error) { return net.Dial("tcp", g.addr) }, e.data.crc, buf)
	}
	in.check = func(ops int) []string {
		st := g.g.Stats()
		return routeFailures(st, int64(ops), st.DialsChain.Load(), "3-hop chain")
	}
	in.detail = func(m map[string]any) {
		gatewayDetail(m, g)
		m["payload_bytes_per_op"] = bulkBytes
	}
	return in, nil
}

func bulkOp(l *spanLog, i int, name string, dial func() (net.Conn, error), want uint32, buf []byte) error {
	l.begin(i, name)
	defer l.end()
	l.begin(i, "dial")
	c, err := dial()
	l.end()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetDeadline(deadline()); err != nil {
		return err
	}
	l.begin(i, "download")
	err = download(c, bulkBytes, want, buf)
	l.end()
	return err
}

// setupProbeMesh: a monitor over 16 relays with MaxHops 3, 3 chain
// candidates, 4 probes per route and no bursts, after 3 warm rounds.
// Every op is one ProbeRound.
func setupProbeMesh(e env) (*instance, error) {
	in := &instance{traffic: "loopback"}
	ms, err := startMeasureServer(&in.cs)
	if err != nil {
		return nil, err
	}
	relays, err := startRelays(&in.cs, fleetSize, e.traced)
	if err != nil {
		in.close()
		return nil, err
	}
	// The seed sets the fleet's order, which the monitor probes in.
	rng := newRand(e.seed)
	rng.Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
	pm, err := startProbeMesh(&in.cs, relays, ms.Addr().String(), meshHops, warmRounds)
	if err != nil {
		in.close()
		return nil, err
	}
	in.op = func(i int) error {
		e.spans.begin(i, "probe_mesh")
		defer e.spans.end()
		return pm.round()
	}
	in.check = func(int) []string {
		if n := len(pm.mon.Ranked()); n <= fleetSize+1 {
			return []string{fmt.Sprintf("%d routes ranked; want chains beyond the %d single routes", n, fleetSize+1)}
		}
		return nil
	}
	in.detail = func(m map[string]any) {
		m["routes_per_round"] = len(pm.mon.Ranked())
		m["probes"] = counter(pm.reg, "cronets_pathmon_probes_total")
		m["probe_failures"] = probeFailures(pm.reg)
	}
	return in, nil
}

// chainDialSpan names chainDial's span by depth, without formatting a
// string per op.
var chainDialSpan = [...]string{1: "chain.Dial/h1", 2: "chain.Dial/h2", 3: "chain.Dial/h3"}

// chainDial is the benchmark's call into chain.Dial, with a span.
func chainDial(l *spanLog, i int, hops []string, target string) (net.Conn, error) {
	l.begin(i, chainDialSpan[len(hops)])
	defer l.end()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	return chain.Dial(ctx, hops, target, chain.Options{})
}
