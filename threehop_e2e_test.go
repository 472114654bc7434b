package cronets_test

// Three-hop chain end-to-end test — the acceptance scenario for the
// N-hop route model: a topology where the direct path, every
// single-relay path, and every two-hop chain cross at least one
// congested leg, but the 3-hop chain client -> A -> B -> C -> dest rides
// clean segments end to end. With MaxHops=3 the beam search must
// enumerate the depth-3 candidate, pathmon must commit it, the gateway's
// next flow must ride it byte-identically through all three real relays,
// and the route must be visible in /debug/paths (a 3-hop best row), in
// cronets_gateway_dials_total{path="chain"}, and as three nested
// chain.hop trace spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
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

func TestThreeHopEndToEnd(t *testing.T) {
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

	const congested = 40 * time.Millisecond

	// Relay C: clean egress to the destination, but clients (and relay A)
	// reach it only through impaired links — its value shows only at the
	// end of a chain entered elsewhere.
	relayCLn := mustListenCP(t)
	relayC := relay.New(relayCLn, relay.Config{})
	go relayC.Serve() //nolint:errcheck
	defer relayC.Close()

	netemCLn := mustListenCP(t)
	netemC := netem.New(netemCLn, relayCLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: congested},
		Down: netem.Impairment{Latency: congested},
	})
	go netemC.Serve() //nolint:errcheck
	defer netemC.Close()

	// B's congested egress toward the destination; its backbone leg to C
	// is clean (B dials relay C's listener directly).
	netemBDLn := mustListenCP(t)
	netemBD := netem.New(netemBDLn, destAddr, netem.Config{
		Up:   netem.Impairment{Latency: congested},
		Down: netem.Impairment{Latency: congested},
	})
	go netemBD.Serve() //nolint:errcheck
	defer netemBD.Close()

	// Relay B: impaired client access (netemB below), congested egress to
	// the destination, clean backbone to C. The fleet names netemC as
	// relay C's address, so B's routing table points that name at the
	// clean direct leg.
	relayBLn := mustListenCP(t)
	relayB := relay.New(relayBLn, relay.Config{
		Dialer: &rewriteDialer{rewrite: map[string]string{
			destAddr:                 netemBDLn.Addr().String(),
			netemCLn.Addr().String(): relayCLn.Addr().String(),
		}},
	})
	go relayB.Serve() //nolint:errcheck
	defer relayB.Close()

	netemBLn := mustListenCP(t)
	netemB := netem.New(netemBLn, relayBLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: congested},
		Down: netem.Impairment{Latency: congested},
	})
	go netemB.Serve() //nolint:errcheck
	defer netemB.Close()

	// A's congested egress toward the destination and toward C; its
	// backbone leg to B is congested in phase 1 and clears in phase 2.
	netemADLn := mustListenCP(t)
	netemAD := netem.New(netemADLn, destAddr, netem.Config{
		Up:   netem.Impairment{Latency: congested},
		Down: netem.Impairment{Latency: congested},
	})
	go netemAD.Serve() //nolint:errcheck
	defer netemAD.Close()

	netemACLn := mustListenCP(t)
	netemAC := netem.New(netemACLn, relayCLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: congested},
		Down: netem.Impairment{Latency: congested},
	})
	go netemAC.Serve() //nolint:errcheck
	defer netemAC.Close()

	netemABLn := mustListenCP(t)
	netemAB := netem.New(netemABLn, relayBLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: 60 * time.Millisecond},
		Down: netem.Impairment{Latency: 60 * time.Millisecond},
	})
	go netemAB.Serve() //nolint:errcheck
	defer netemAB.Close()

	// Relay A: clean client access, every route out shaped — its dialer
	// is the emulated routing table over the fleet's names for B and C.
	relayALn := mustListenCP(t)
	relayA := relay.New(relayALn, relay.Config{
		Dialer: &rewriteDialer{rewrite: map[string]string{
			destAddr:                 netemADLn.Addr().String(),
			netemBLn.Addr().String(): netemABLn.Addr().String(),
			netemCLn.Addr().String(): netemACLn.Addr().String(),
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

	fleet := []string{relayALn.Addr().String(), netemBLn.Addr().String(), netemCLn.Addr().String()}
	aAddr, bAddr, cAddr := fleet[0], fleet[1], fleet[2]

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
		MaxHops:      3,
		// The deep chain's summed access-leg srtts (~320 ms) dwarf the
		// 100 ms direct baseline precisely because each leg is congested —
		// the srtt-sum bound would prune away the very candidate whose
		// hop-by-hop segments are clean. Disable pruning; this topology is
		// all triangle-inequality violation.
		ChainPruneFactor: -1,
		Obs:              reg,
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

	// Phase 1: the direct path is clean and wins; every overlay route
	// crosses at least one congested leg.
	waitFor(t, 10*time.Second, "initial best route", func() bool {
		best, ok := mon.Best()
		return ok && best.IsDirect() && mon.Rounds() >= 2
	})

	// Phase 2: the direct path degrades to 50 ms one-way while the A->B
	// backbone congestion clears. Every 1-hop route and every 2-hop chain
	// still crosses a 40 ms impaired leg (B's and C's client access, A's
	// egress to dest and to C, B's egress to dest); only
	// client -> A -> B -> C -> dest is clean end to end. Pathmon must
	// enumerate the depth-3 candidate and commit it.
	netemD.SetImpairment(
		netem.Impairment{Latency: 50 * time.Millisecond},
		netem.Impairment{Latency: 50 * time.Millisecond},
	)
	netemAB.SetImpairment(netem.Impairment{}, netem.Impairment{})
	degradeStart := time.Now()
	wantChain := pathmon.MakeRoute(aAddr, bAddr, cAddr)
	waitFor(t, 30*time.Second, "switch to the 3-hop chain", func() bool {
		best, ok := mon.Best()
		return ok && best == wantChain
	})
	t.Logf("3-hop switch %v after degradation (interval %v)", time.Since(degradeStart), probeInterval)

	// The gateway's next flow rides the chain through all three real
	// relays, byte-identically.
	conn, route, err := gw.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if route != wantChain {
		t.Fatalf("post-degradation dial took %v, want chain %v", route, wantChain)
	}
	payload := make([]byte, 64<<10) // 4096 echo frames of 16 bytes
	rnd := rand.New(rand.NewSource(11))
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
		t.Fatalf("reading echoed payload over the 3-hop chain: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("payload corrupted crossing the 3-hop chain")
	}
	for name, rl := range map[string]*relay.Relay{"A": relayA, "B": relayB, "C": relayC} {
		if rl.Stats().Accepted.Load() == 0 {
			t.Fatalf("chain flow bypassed relay %s", name)
		}
	}

	// Operator surfaces: the chain dial counter in /metrics and a 3-hop
	// best-state chain row in /debug/paths.
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
	if len(chainRow.Hops) != 3 || chainRow.Hops[0] != aAddr || chainRow.Hops[1] != bAddr || chainRow.Hops[2] != cAddr {
		t.Fatalf("/debug/paths chain hops = %v, want [%s %s %s]", chainRow.Hops, aAddr, bAddr, cAddr)
	}
	if chainRow.Path != "via "+aAddr+">"+bAddr+">"+cAddr {
		t.Fatalf("/debug/paths chain display = %q, want every hop rendered", chainRow.Path)
	}

	// The chain dial left one chain.hop span per hop, nested the way the
	// preamble traveled: hop 0 under gateway.dial, hop 1 under hop 0,
	// hop 2 under hop 1.
	spans := tracer.Snapshot()
	byID := make(map[uint64]*flowtrace.Span, len(spans))
	var hops []*flowtrace.Span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "chain.hop" {
			hops = append(hops, s)
		}
	}
	if len(hops) != 3 {
		t.Fatalf("chain.hop spans = %d, want 3 (one per hop)", len(hops))
	}
	children := make(map[uint64]*flowtrace.Span, len(hops))
	for _, h := range hops {
		if children[h.Parent] != nil {
			t.Fatalf("two chain.hop spans share parent %d", h.Parent)
		}
		children[h.Parent] = h
	}
	var head *flowtrace.Span
	for _, h := range hops {
		parent := byID[h.Parent]
		if parent == nil || parent.Name != "chain.hop" {
			if head != nil {
				t.Fatalf("two chain.hop heads: %d and %d", head.ID, h.ID)
			}
			head = h
			if parent == nil || parent.Name != "gateway.dial" {
				t.Fatalf("hop 0 parents under %+v, want the gateway.dial span", parent)
			}
		}
	}
	if head == nil {
		t.Fatal("chain.hop spans form a cycle")
	}
	depth := 1
	for cur := children[head.ID]; cur != nil; cur = children[cur.ID] {
		depth++
	}
	if depth != 3 {
		t.Fatalf("chain.hop parent chain depth = %d, want 3", depth)
	}
}
