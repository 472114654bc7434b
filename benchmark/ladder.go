package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/measure"
	"cronets/internal/pipe"
)

// A traced run measures the per-layer metrics. It runs the workload
// untraced and traced in alternation (for the tracing overhead and the
// workload's own allocation and GC counts), then the full ladder: the
// same op with one layer added per rung, so a layer's cost is the
// difference between adjacent rungs. Every traced run measures every
// layer, so the per-layer metrics of all workloads come from one method;
// the ladder differences do not depend on which workload was named.

// rung is one ladder step: an op and the window its runs accumulate.
type rung struct {
	name string
	op   func(i int) error
	w    *window
}

func (r *rung) us() float64 { return r.w.lat.percentile(50) }

func (r *rung) allocsPerOp() float64 { return r.w.perOp(float64(r.w.mallocs)) }

// ladderPasses splits every rung's time into passes, run in alternating
// order, so drift of a shared host lands on all rungs alike.
const ladderPasses = 3

func runLadder(rungs []*rung, each time.Duration, next *int) {
	for p := 0; p < ladderPasses; p++ {
		for k := range rungs {
			r := rungs[k]
			if p%2 == 1 {
				r = rungs[len(rungs)-1-k]
			}
			w := runFor(each/ladderPasses, next, r.op)
			if r.w == nil {
				r.w = w
			} else {
				r.w.merge(w)
			}
		}
	}
}

// tracedRun collects everything a traced run measures.
type tracedRun struct {
	o       options
	data    inputs
	spans   *spanLog
	rungDur time.Duration
	next    int
	layer   map[string]float64
	ladder  map[string]map[string]rungRow // per ladder, per rung
	detail  map[string]any
	fail    []string
	ops     int
	failed  int
	cs      closers
}

func runTraced(o options) (*report, *result, error) {
	base := baseHygiene()
	pipe0 := pipe.Stats()
	t := &tracedRun{
		o:       o,
		data:    newInputs(o.seed, true), // the bulk ladder downloads the payload
		spans:   newSpanLog(),
		rungDur: max(50*time.Millisecond, o.window()/25),
		layer:   map[string]float64{},
		ladder:  map[string]map[string]rungRow{},
		detail:  map[string]any{},
	}
	def, _ := lookupWorkload(o.workload)
	traffic, err := t.workload(def)
	if err == nil {
		err = t.flowsLadder()
	}
	if err == nil {
		err = t.rrLadder()
	}
	if err == nil {
		err = t.bulkLadder()
	}
	if err == nil {
		err = t.probeLadder()
	}
	if err == nil {
		err = t.simLadder()
	}
	t.cs.closeAll()
	if err != nil {
		return nil, nil, err
	}

	p := pipe.Stats()
	hits, misses := p.Hits-pipe0.Hits, p.Misses-pipe0.Misses
	t.layer["pipe.pool_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	t.detail["pipe_pool"] = fmt.Sprintf("%d hits / %d gets", hits, hits+misses)
	t.layer["pipe.buffers_outstanding"] = float64((p.Hits + p.Misses) - (p.Puts + p.Discards))
	goroutines, fds := base.leaked()
	t.layer["proc.leaked_goroutines"] = float64(goroutines)
	t.layer["proc.leaked_fds"] = float64(fds)
	t.detail["ladders"] = t.ladder
	t.detail["spans"] = t.spans.summary()
	if err := t.writeSpans(); err != nil {
		return nil, nil, err
	}
	t.detail["span_file"] = o.spans

	m := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		v, ok := t.layer[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced run did not measure %s", d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	rep, res := finish(o, traffic, m, t.detail, t.fail, t.ops, t.failed)
	return rep, res, nil
}

// account adds a window's ops and failures to the run's totals.
func (t *tracedRun) account(what string, w *window) {
	t.ops += w.attempted
	t.failed += w.failed
	t.fail = append(t.fail, w.errSummary(what)...)
}

// rungRow is one rung's line in a ladder table.
type rungRow struct {
	US          float64 `json:"us_p50"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

func (t *tracedRun) accountRungs(ladder string, rungs []*rung) {
	tab := map[string]rungRow{}
	for _, r := range rungs {
		t.account(ladder+"/"+r.name, r.w)
		tab[r.name] = rungRow{r.us(), r.allocsPerOp(), r.w.completed()}
	}
	t.ladder[ladder] = tab
}

// workload runs the named workload untraced and traced in alternation.
func (t *tracedRun) workload(def workloadDef) (string, error) {
	plain, err := def.setup(env{seed: t.o.seed, data: t.data, corrupt: t.o.corrupt})
	if err != nil {
		return "", fmt.Errorf("%s set-up: %w", def.name, err)
	}
	t.cs.add(func() error { plain.close(); return nil })
	traced, err := def.setup(env{seed: t.o.seed, data: t.data, corrupt: t.o.corrupt, traced: true, spans: t.spans})
	if err != nil {
		return "", fmt.Errorf("%s traced set-up: %w", def.name, err)
	}
	t.cs.add(func() error { traced.close(); return nil })

	d := t.o.window() / 10
	nPlain, nTraced := 0, 0
	t.account("warm-up", runFor(t.o.warmup(def)/2, &nPlain, plain.op))
	t.account("traced warm-up", runFor(t.o.warmup(def)/2, &nTraced, traced.op))
	wp, wt := runFor(d, &nPlain, plain.op), runFor(d, &nTraced, traced.op)
	wp.merge(runFor(d, &nPlain, plain.op))
	wt.merge(runFor(d, &nTraced, traced.op))
	t.account("window", wp)
	t.account("traced window", wt)
	t.fail = append(t.fail, plain.check(nPlain)...)
	t.fail = append(t.fail, traced.check(nTraced)...)

	t.layer["trace.overhead_frac"] = 1 - ratio(wt.opsPerSec(), wp.opsPerSec())
	t.layer["proc.allocs_per_op"] = wp.perOp(float64(wp.mallocs))
	t.layer["proc.alloc_bytes_per_op"] = wp.perOp(float64(wp.allocB))
	t.layer["proc.gc_per_s"] = float64(wp.gcs) / wp.elapsed.Seconds()
	t.detail["workload"] = map[string]any{
		"ops_per_s_untraced": wp.opsPerSec(),
		"ops_per_s_traced":   wt.opsPerSec(),
		"program_spans":      programSpans(traced.tracers),
	}
	return plain.traffic, nil
}

// spanMedian is the count and median duration of a set of spans.
type spanMedian struct {
	N  int     `json:"n"`
	US float64 `json:"us_p50"`
}

// programSpans summarizes the program's own flowtrace spans by name.
func programSpans(tracers []*flowtrace.Tracer) map[string]spanMedian {
	byName := map[string][]float64{}
	for _, tr := range tracers {
		for _, s := range tr.Snapshot() {
			byName[s.Name] = append(byName[s.Name], float64(s.Duration().Nanoseconds())/1e3)
		}
	}
	out := map[string]spanMedian{}
	for name, d := range byName {
		out[name] = spanMedian{len(d), median(d)}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gatewayDial is the benchmark's call into Gateway.Dial, with a span.
func gatewayDial(l *spanLog, i int, name string, g *gw) (net.Conn, error) {
	l.begin(i, name)
	defer l.end()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	c, _, err := g.g.Dial(ctx)
	return c, err
}

// flowsLadder: the flows_1hop op (open, 64 B request and reply, close)
// over tcp → relay (chain.Dial, 1 hop) → gateway_cold (Gateway.Dial, pool
// off) → gateway_pooled → listener, plus the listener with flowtrace on.
func (t *tracedRun) flowsLadder() error {
	cs := &t.cs
	d, err := startDest(nil, false)
	if err != nil {
		return err
	}
	cs.add(d.close)
	relays, err := startRelays(cs, 1, false)
	if err != nil {
		return err
	}
	hops := addrs(relays)
	cold, err := startGateway(cs, gwConfig{dest: d.addr(), hops: hops})
	if err != nil {
		return err
	}
	pooled, err := startGateway(cs, gwConfig{dest: d.addr(), hops: hops, poolSize: 4})
	if err != nil {
		return err
	}
	lis, err := startGateway(cs, gwConfig{dest: d.addr(), hops: hops, poolSize: 4, listen: true})
	if err != nil {
		return err
	}
	trRelays, err := startRelays(cs, 1, true)
	if err != nil {
		return err
	}
	trLis, err := startGateway(cs, gwConfig{dest: d.addr(), hops: addrs(trRelays), poolSize: 4, listen: true, traced: true})
	if err != nil {
		return err
	}

	reqs := t.data.reqs
	msg := make([]byte, hdrLen+reqBytes)
	copy(msg, header(modeEcho, reqBytes))
	reply := make([]byte, reqBytes)
	l := t.spans
	flow := func(name string, dial func(i int) (net.Conn, error)) *rung {
		span := "flows/" + name
		return &rung{name: name, op: func(i int) error {
			copy(msg[hdrLen:], reqs.at(i, reqBytes))
			return flowOp(l, i, span, func() (net.Conn, error) { return dial(i) }, msg, reply)
		}}
	}
	rungs := []*rung{
		flow("tcp", func(int) (net.Conn, error) { return net.Dial("tcp", d.addr()) }),
		flow("relay", func(i int) (net.Conn, error) { return chainDial(l, i, hops, d.addr()) }),
		flow("gateway_cold", func(i int) (net.Conn, error) { return gatewayDial(l, i, "gateway.Dial/cold", cold) }),
		flow("gateway_pooled", func(i int) (net.Conn, error) { return gatewayDial(l, i, "gateway.Dial/pooled", pooled) }),
		flow("listener", func(int) (net.Conn, error) { return net.Dial("tcp", lis.addr) }),
		flow("listener_traced", func(int) (net.Conn, error) { return net.Dial("tcp", trLis.addr) }),
	}
	runLadder(rungs, t.rungDur, &t.next)
	t.accountRungs("flows", rungs)
	tcp, rel, gcold, gpool, list := rungs[0], rungs[1], rungs[2], rungs[3], rungs[4]

	t.layer["relay.flow_us"] = rel.us() - tcp.us()
	t.layer["relay.allocs_per_op"] = rel.allocsPerOp() - tcp.allocsPerOp()
	t.layer["gateway.select_us"] = gcold.us() - rel.us()
	t.layer["connpool.saving_us"] = gcold.us() - gpool.us()
	t.layer["gateway.listener_us"] = list.us() - gpool.us()
	t.layer["gateway.allocs_per_op"] = list.allocsPerOp() - gpool.allocsPerOp()
	t.layer["gateway.dial_us"] = l.medianUS("gateway.Dial/pooled")

	st := lis.g.Stats()
	pooledDials, coldDials := st.DialsRelayPooled.Load(), st.DialsRelayCold.Load()
	t.layer["gateway.pooled_frac"] = ratio(float64(pooledDials), float64(pooledDials+coldDials))
	t.detail["gateway_pooled_frac"] = fmt.Sprintf("%d pooled / %d relay dials", pooledDials, pooledDials+coldDials)
	hits := counter(lis.reg, "cronets_connpool_hits_total")
	misses := counter(lis.reg, "cronets_connpool_misses_total")
	t.layer["connpool.hit_frac"] = ratio(float64(hits), float64(hits+misses))
	t.detail["connpool_hit_frac"] = fmt.Sprintf("%d hits / %d checkouts", hits, hits+misses)
	var expired, fillErrs int64
	for _, g := range []*gw{pooled, lis, trLis} {
		expired += counter(g.reg, "cronets_connpool_expired_total")
		fillErrs += counter(g.reg, "cronets_connpool_fill_errors_total")
	}
	t.layer["connpool.expired"] = float64(expired)
	t.layer["connpool.fill_errors"] = float64(fillErrs)
	var fallbacks, dialFails int64
	for _, g := range []*gw{cold, pooled, lis, trLis} {
		fallbacks += g.g.Stats().Fallbacks.Load()
		dialFails += g.g.Stats().DialFailures.Load()
	}
	t.layer["gateway.fallbacks"] = float64(fallbacks)
	t.layer["gateway.dial_failures"] = float64(dialFails)
	t.countRelays(append(relays, trRelays...))

	prog := programSpans([]*flowtrace.Tracer{trLis.tracer, trRelays[0].tracer})
	t.detail["flows_program_spans"] = prog
	relayDial, ok := prog["relay.dial"]
	if !ok {
		return fmt.Errorf("no relay.dial spans recorded")
	}
	t.layer["relay.dial_us"] = relayDial.US
	return nil
}

// countRelays adds relays' error and overload counters to the run's.
func (t *tracedRun) countRelays(relays []node) {
	for _, n := range relays {
		t.layer["relay.errors"] += float64(n.r.Stats().Errors.Load())
		t.layer["relay.overloaded"] += float64(n.r.Stats().Overloaded.Load())
	}
}

// rrLadder: the rr64_1hop op (64 B request and reply on a persistent
// flow) over tcp → pipe (a benchmark-owned pipe.Bidirectional splice) →
// relay → listener.
func (t *tracedRun) rrLadder() error {
	cs := &t.cs
	d, err := startDest(nil, false)
	if err != nil {
		return err
	}
	cs.add(d.close)
	relays, err := startRelays(cs, 1, false)
	if err != nil {
		return err
	}
	p, err := startProxy(d.addr(), pipeSplice)
	if err != nil {
		return err
	}
	cs.add(p.close)
	lis, err := startGateway(cs, gwConfig{dest: d.addr(), hops: addrs(relays), listen: true})
	if err != nil {
		return err
	}
	reqs := t.data.reqs
	l := t.spans
	rr := func(name string, dial func(i int) (net.Conn, error)) *rung {
		f := &rrFlow{dial: dial}
		cs.add(f.close)
		span := "rr64/" + name
		return &rung{name: name, op: func(i int) error { return f.op(l, i, span, reqs.at(i, reqBytes)) }}
	}
	rungs := []*rung{
		rr("tcp", func(int) (net.Conn, error) { return net.Dial("tcp", d.addr()) }),
		rr("pipe", func(int) (net.Conn, error) { return net.Dial("tcp", p.addr()) }),
		rr("relay", func(i int) (net.Conn, error) { return chainDial(l, i, addrs(relays), d.addr()) }),
		rr("listener", func(int) (net.Conn, error) { return net.Dial("tcp", lis.addr) }),
	}
	runLadder(rungs, t.rungDur, &t.next)
	t.accountRungs("rr64", rungs)
	t.layer["pipe.rr_us"] = rungs[1].us() - rungs[0].us()
	t.layer["relay.rr_us"] = rungs[2].us() - rungs[1].us()
	t.layer["gateway.rr_us"] = rungs[3].us() - rungs[2].us()
	t.countRelays(relays)
	return nil
}

// bulkLadder: the bulk_3hop op (8 MiB download, CRC-checked) over tcp →
// kernel_splice (io.Copy between TCP conns, which Go does with splice(2))
// → pipe → relay → chain2 → chain3 → listener; then chain.Dial with a
// 16 B echo at 1, 2 and 3 hops over the same relays.
func (t *tracedRun) bulkLadder() error {
	cs := &t.cs
	want := t.data.crc
	d, err := startDest(t.data.payload, false)
	if err != nil {
		return err
	}
	cs.add(d.close)
	relays, err := startRelays(cs, 3, false)
	if err != nil {
		return err
	}
	hops := addrs(relays)
	ks, err := startProxy(d.addr(), kernelSplice)
	if err != nil {
		return err
	}
	cs.add(ks.close)
	p, err := startProxy(d.addr(), pipeSplice)
	if err != nil {
		return err
	}
	cs.add(p.close)
	lis, err := startGateway(cs, gwConfig{dest: d.addr(), hops: hops, listen: true})
	if err != nil {
		return err
	}
	buf := make([]byte, relayBufferBytes)
	l := t.spans
	bulk := func(name string, dial func(i int) (net.Conn, error)) *rung {
		span := "bulk/" + name
		return &rung{name: name, op: func(i int) error {
			return bulkOp(l, i, span, func() (net.Conn, error) { return dial(i) }, want, buf)
		}}
	}
	direct := func(addr string) func(int) (net.Conn, error) {
		return func(int) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	via := func(n int) func(int) (net.Conn, error) {
		return func(i int) (net.Conn, error) { return chainDial(l, i, hops[:n], d.addr()) }
	}
	rungs := []*rung{
		bulk("tcp", direct(d.addr())),
		bulk("kernel_splice", direct(ks.addr())),
		bulk("pipe", direct(p.addr())),
		bulk("relay", via(1)),
		bulk("chain2", via(2)),
		bulk("chain3", via(3)),
		bulk("listener", direct(lis.addr)),
	}
	runLadder(rungs, t.rungDur, &t.next)
	t.accountRungs("bulk", rungs)
	perMiB := func(r *rung) float64 { return r.us() / (bulkBytes >> 20) }
	tcp, ks2, pp, rel, c3, list := rungs[0], rungs[1], rungs[2], rungs[3], rungs[5], rungs[6]
	t.layer["pipe.us_per_MiB"] = perMiB(pp) - perMiB(tcp)
	t.layer["pipe.vs_splice_us_per_MiB"] = perMiB(pp) - perMiB(ks2)
	t.layer["relay.us_per_MiB"] = perMiB(rel) - perMiB(pp)
	t.layer["chain.hop_us_per_MiB"] = (perMiB(c3) - perMiB(rel)) / 2
	t.layer["gateway.us_per_MiB"] = perMiB(list) - perMiB(c3)
	t.fail = append(t.fail, routeFailures(lis.g.Stats(), int64(list.w.attempted), lis.g.Stats().DialsChain.Load(), "3-hop chain")...)

	// chain.Dial + a 16 B echo + Close at each depth.
	const frame = 16
	msg := append(header(modeEcho, frame), seededBytes(t.o.seed, frame)...)
	reply := make([]byte, frame)
	dial := func(n int) *rung {
		name := fmt.Sprintf("h%d", n)
		span := "chain/" + name
		return &rung{name: name, op: func(i int) error {
			return flowOp(l, i, span, func() (net.Conn, error) { return via(n)(i) }, msg, reply)
		}}
	}
	dials := []*rung{dial(1), dial(2), dial(3)}
	runLadder(dials, t.rungDur, &t.next)
	t.accountRungs("chain_dial", dials)
	t.layer["chain.dial_us.h1"] = dials[0].us()
	t.layer["chain.dial_us.h2"] = dials[1].us()
	t.layer["chain.dial_us.h3"] = dials[2].us()
	t.layer["chain.allocs_per_hop"] = (dials[2].allocsPerOp() - dials[0].allocsPerOp()) / 2
	t.countRelays(relays)
	return nil
}

// probeLadder: one ProbeRound at fleet sizes 4, 16, 64 × MaxHops 1, 2, 3,
// plus measure.ProbeRTTContext on a direct connection and Ranked() at
// n16_h3.
func (t *tracedRun) probeLadder() error {
	cs := &t.cs
	ms, err := startMeasureServer(cs)
	if err != nil {
		return err
	}
	dest := ms.Addr().String()
	relays, err := startRelays(cs, 64, false)
	if err != nil {
		return err
	}
	l := t.spans
	var rungs []*rung
	var meshes []*probeMesh
	var n16h3 *probeMesh
	for _, n := range []int{4, 16, 64} {
		for h := 1; h <= 3; h++ {
			pm, err := startProbeMesh(cs, relays[:n], dest, h, warmRounds)
			if err != nil {
				return err
			}
			meshes = append(meshes, pm)
			if n == 16 && h == 3 {
				n16h3 = pm
			}
			name := fmt.Sprintf("n%d_h%d", n, h)
			span := "pathmon.ProbeRound/" + name
			rungs = append(rungs, &rung{name: name, op: func(i int) error {
				l.begin(i, span)
				defer l.end()
				return pm.round()
			}})
		}
	}
	probe := &rung{name: "measure_probe_rtt", op: func(i int) error {
		c, err := net.Dial("tcp", dest)
		if err != nil {
			return err
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		l.begin(i, "measure.ProbeRTTContext")
		defer l.end()
		_, err = measure.ProbeRTTContext(ctx, c, 4, nil)
		return err
	}}
	ranked := &rung{name: "ranked_n16_h3", op: func(i int) error {
		if len(n16h3.mon.Ranked()) == 0 {
			return fmt.Errorf("empty ranking")
		}
		return nil
	}}
	all := append(append([]*rung(nil), rungs...), probe, ranked)
	runLadder(all, t.rungDur, &t.next)
	t.accountRungs("probe", all)
	for _, r := range rungs {
		t.layer["pathmon.round_us."+r.name] = r.us()
	}
	t.layer["measure.probe_rtt_us"] = l.medianUS("measure.ProbeRTTContext")
	t.layer["pathmon.ranked_us"] = ranked.us()
	t.layer["pathmon.routes_per_round"] = float64(len(n16h3.mon.Ranked()))
	var probes, fails int64
	for _, pm := range meshes {
		probes += counter(pm.reg, "cronets_pathmon_probes_total")
		fails += probeFailures(pm.reg)
	}
	t.layer["pathmon.probe_fail_frac"] = ratio(float64(fails), float64(probes))
	t.detail["pathmon_probe_failures"] = fmt.Sprintf("%d failed / %d probes", fails, probes)
	t.countRelays(relays)
	return nil
}

// spansPerName bounds the ops of each top-level span name the span file
// holds; the summary covers every span recorded.
const spansPerName = 500

// writeSpans writes a sample of the benchmark's spans, the summary of all
// of them and the ladder tables to the span file.
func (t *tracedRun) writeSpans() error {
	if err := os.MkdirAll(filepath.Dir(t.o.spans), 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.o.spans)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload":       t.o.workload,
		"seed":           t.o.seed,
		"spans":          t.spans.sample(spansPerName),
		"ops_per_name":   spansPerName,
		"spans_recorded": len(t.spans.spans),
		"dropped":        t.spans.dropped,
		"summary":        t.spans.summary(),
		"ladders":        t.ladder,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
