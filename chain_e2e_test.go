package cronets_test

// Multi-hop chain end-to-end test — the acceptance scenario for ISSUE 8:
// a topology where the direct path and every single-relay path cross an
// impaired link, but the two-hop chain client -> A -> B -> dest rides
// clean segments end to end (each single path's bottleneck is on a leg
// the chain avoids — the CRONets observation that pairing cloud regions
// composes backbone path diversity no single hop has). When the direct
// path degrades, pathmon must commit the 2-hop chain, the gateway's next
// flow must ride it byte-identically through both real relays, and the
// switch must be visible in /debug/paths, in
// cronets_gateway_dials_total{path="chain"}, and as one chain.hop trace
// span per hop with correct parentage.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/gateway"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
)

// rewriteDialer rewrites chosen target addresses before dialing — the
// per-node routing table of the emulated topology: relay A's egress
// toward the destination is congested (rewritten through a netem link)
// while its backbone leg toward relay B is clean.
type rewriteDialer struct {
	d       net.Dialer
	rewrite map[string]string
}

func (r *rewriteDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if to, ok := r.rewrite[address]; ok {
		address = to
	}
	return r.d.DialContext(ctx, network, address)
}

func TestChainFailoverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("netem e2e is skipped in -short mode")
	}
	reg := obs.NewRegistry()

	// Destination: a measure server (probe endpoint + echo application).
	destLn := mustListenCP(t)
	dest := measure.NewServer(destLn)
	go dest.Serve() //nolint:errcheck
	defer dest.Close()
	destAddr := destLn.Addr().String()

	// Relay B: clean egress to the destination. Clients reach it only
	// through an impaired access link (netemB) — B's bottleneck is its
	// ingress.
	relayBLn := mustListenCP(t)
	relayB := relay.New(relayBLn, relay.Config{})
	go relayB.Serve() //nolint:errcheck
	defer relayB.Close()

	netemBLn := mustListenCP(t)
	netemB := netem.New(netemBLn, relayBLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: 40 * time.Millisecond},
		Down: netem.Impairment{Latency: 40 * time.Millisecond},
	})
	go netemB.Serve() //nolint:errcheck
	defer netemB.Close()

	// A's congested egress toward the destination.
	netemADLn := mustListenCP(t)
	netemAD := netem.New(netemADLn, destAddr, netem.Config{
		Up:   netem.Impairment{Latency: 40 * time.Millisecond},
		Down: netem.Impairment{Latency: 40 * time.Millisecond},
	})
	go netemAD.Serve() //nolint:errcheck
	defer netemAD.Close()

	// A's backbone leg toward relay B: initially congested too (the
	// chain has nothing to offer yet), clearing in phase 2.
	netemABLn := mustListenCP(t)
	netemAB := netem.New(netemABLn, relayBLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: 60 * time.Millisecond},
		Down: netem.Impairment{Latency: 60 * time.Millisecond},
	})
	go netemAB.Serve() //nolint:errcheck
	defer netemAB.Close()

	// Relay A: clean client access, but every route out is shaped — its
	// dialer is the emulated routing table. The fleet names netemB as
	// relay B's address, so A reaching "netemB" hops the backbone link.
	relayALn := mustListenCP(t)
	relayA := relay.New(relayALn, relay.Config{
		Dialer: &rewriteDialer{rewrite: map[string]string{
			destAddr:                 netemADLn.Addr().String(),
			netemBLn.Addr().String(): netemABLn.Addr().String(),
		}},
	})
	go relayA.Serve() //nolint:errcheck
	defer relayA.Close()

	// Direct path: clean at first, degraded in phase 2.
	netemDLn := mustListenCP(t)
	netemD := netem.New(netemDLn, destAddr, netem.Config{
		Up:   netem.Impairment{Latency: 2 * time.Millisecond},
		Down: netem.Impairment{Latency: 2 * time.Millisecond},
		Obs:  reg,
	})
	go netemD.Serve() //nolint:errcheck
	defer netemD.Close()

	fleet := []string{relayALn.Addr().String(), netemBLn.Addr().String()}
	aAddr, bAddr := fleet[0], fleet[1]

	const probeInterval = 300 * time.Millisecond
	mon, err := pathmon.New(pathmon.Config{
		Dest:         destAddr,
		DirectAddr:   netemDLn.Addr().String(),
		Fleet:        fleet,
		Interval:     probeInterval,
		ProbeTimeout: 2 * time.Second,
		ProbeCount:   2,
		Alpha:        0.5,
		SwitchMargin: 0.2,
		SwitchRounds: 2,
		MaxHops:      2,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	tracer := flowtrace.New(flowtrace.Config{Node: "client", SampleRate: 1, Obs: reg})
	gw, err := gateway.New(gateway.Config{
		Dest:       destAddr,
		DirectAddr: netemDLn.Addr().String(),
		Monitor:    mon,
		Obs:        reg,
		Tracer:     tracer,
		PoolSize:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	metricsSrv := httptest.NewServer(reg.MetricsHandler())
	defer metricsSrv.Close()
	pathsSrv := httptest.NewServer(obs.GETOnly(mon.View(pathmon.ObjectiveLatency).PathsHandler()))
	defer pathsSrv.Close()

	mon.Start()

	// Phase 1: the direct path is clean and wins; the chain exists as a
	// candidate but its backbone leg is congested.
	waitFor(t, 10*time.Second, "initial best path", func() bool {
		best, ok := mon.Best()
		return ok && best.IsDirect() && mon.Rounds() >= 2
	})
	conn, path, err := gw.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !path.IsDirect() {
		t.Fatalf("healthy-phase dial took %v, want direct", path)
	}
	_ = conn.Close()

	// Phase 2: the direct path degrades to 50 ms one-way while the A->B
	// backbone congestion clears. Every 1-hop path still crosses a 40 ms
	// impaired leg; only the chain client -> A -> B -> dest is clean end
	// to end. Pathmon must commit the chain.
	netemD.SetImpairment(
		netem.Impairment{Latency: 50 * time.Millisecond},
		netem.Impairment{Latency: 50 * time.Millisecond},
	)
	netemAB.SetImpairment(netem.Impairment{}, netem.Impairment{})
	degradeStart := time.Now()
	wantChain := pathmon.MakeRoute(aAddr, bAddr)
	waitFor(t, 20*time.Second, "switch to the 2-hop chain", func() bool {
		best, ok := mon.Best()
		return ok && best == wantChain
	})
	t.Logf("chain switch %v after degradation (interval %v)", time.Since(degradeStart), probeInterval)

	// The gateway's next flow rides the chain, through both real relays,
	// byte-identically: a 64 KiB random payload echoed frame-by-frame by
	// the destination must come back exactly.
	conn, path, err = gw.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if path != wantChain {
		t.Fatalf("post-degradation dial took %v, want chain %v", path, wantChain)
	}
	payload := make([]byte, 64<<10) // 4096 echo frames of 16 bytes
	rnd := rand.New(rand.NewSource(8))
	rnd.Read(payload)
	if _, err := conn.Write([]byte{'E'}); err != nil { // measure echo mode
		t.Fatal(err)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := conn.Write(payload)
		writeErr <- err
	}()
	got := make([]byte, len(payload))
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading echoed payload over the chain: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("payload corrupted crossing the 2-hop chain")
	}
	if relayA.Stats().Accepted.Load() == 0 || relayB.Stats().Accepted.Load() == 0 {
		t.Fatalf("chain flow bypassed a relay: A accepted %d, B accepted %d",
			relayA.Stats().Accepted.Load(), relayB.Stats().Accepted.Load())
	}

	// The switch is visible to operators: the chain dial counter in
	// /metrics and a best-state chain row in /debug/paths.
	metrics := scrape(t, metricsSrv, "/")
	if !metricsCounterAtLeast(metrics, `cronets_gateway_dials_total{path="chain"}`, 1) {
		t.Fatalf("cronets_gateway_dials_total{path=\"chain\"} missing or zero:\n%s", metrics)
	}
	var rows []pathmon.PathRow
	if err := json.Unmarshal([]byte(scrape(t, pathsSrv, "/")), &rows); err != nil {
		t.Fatalf("/debug/paths is not valid JSON: %v", err)
	}
	var chainRow *pathmon.PathRow
	for i := range rows {
		if rows[i].Kind == "chain" && rows[i].State == "best" {
			chainRow = &rows[i]
		}
	}
	if chainRow == nil {
		t.Fatalf("/debug/paths has no best chain row: %+v", rows)
	}
	if len(chainRow.Hops) != 2 || chainRow.Hops[0] != aAddr || chainRow.Hops[1] != bAddr {
		t.Fatalf("/debug/paths chain hops = %v, want [%s %s]", chainRow.Hops, aAddr, bAddr)
	}
	if chainRow.ScoreMs == nil || chainRow.LastProbeAgeMs == nil {
		t.Fatalf("/debug/paths chain row missing score or probe age: %+v", chainRow)
	}

	// The chain dial left one chain.hop span per hop, nested the way the
	// preamble traveled: hop 0 under the gateway.dial span, hop 1 under
	// hop 0.
	spans := tracer.Snapshot()
	byID := make(map[uint64]*flowtrace.Span, len(spans))
	var hops []*flowtrace.Span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "chain.hop" {
			hops = append(hops, s)
		}
	}
	if len(hops) != 2 {
		t.Fatalf("chain.hop spans = %d, want 2 (one per hop)", len(hops))
	}
	var hop0, hop1 *flowtrace.Span
	if hops[1].Parent == hops[0].ID {
		hop0, hop1 = hops[0], hops[1]
	} else if hops[0].Parent == hops[1].ID {
		hop0, hop1 = hops[1], hops[0]
	} else {
		t.Fatalf("chain.hop spans are not parent/child: %d<-%d and %d<-%d",
			hops[0].ID, hops[0].Parent, hops[1].ID, hops[1].Parent)
	}
	dialSpan := byID[hop0.Parent]
	if dialSpan == nil || dialSpan.Name != "gateway.dial" {
		t.Fatalf("hop 0 parents under %+v, want the gateway.dial span", dialSpan)
	}
	if hop0.Trace != dialSpan.Trace || hop1.Trace != dialSpan.Trace {
		t.Fatal("chain.hop spans left the dial's trace")
	}
}
