package cronets_test

// Flow-tracing end-to-end test — the acceptance scenario for
// internal/flowtrace: a traced flow through gateway -> netem -> relay ->
// measure server must yield one assembled trace on /debug/traces whose
// span tree has the hops in order (gateway.flow at the root, gateway.dial
// under it, chain.hop — the unified dial seam records one per overlay
// hop, even at depth 1 — under the dial, and the netem.shape /
// relay.dial / relay.splice hop spans parented under chain.hop via the
// CONNECT-preamble context), with a first-byte latency shorter than the
// flow's total duration, plus a flow-trace completion event on
// /debug/events.

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
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

func TestFlowTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tracing e2e is skipped in -short mode")
	}
	reg := obs.NewRegistry()
	// One shared tracer stands in for each node's ring so the whole span
	// tree is assembled in one place.
	tracer := flowtrace.New(flowtrace.Config{Node: "e2e", SampleRate: 1, Obs: reg})

	// Destination: a measure server.
	destLn := mustListenCP(t)
	dest := measure.NewServer(destLn)
	go dest.Serve() //nolint:errcheck
	defer dest.Close()
	destAddr := destLn.Addr().String()

	// Relay in CONNECT mode, reached through a netem link (2 ms one-way)
	// that transparently sniffs the passing CONNECT preamble.
	relayLn := mustListenCP(t)
	rl := relay.New(relayLn, relay.Config{Obs: reg, Tracer: tracer})
	go rl.Serve() //nolint:errcheck
	defer rl.Close()

	linkLn := mustListenCP(t)
	link := netem.New(linkLn, relayLn.Addr().String(), netem.Config{
		Up:     netem.Impairment{Latency: 2 * time.Millisecond},
		Down:   netem.Impairment{Latency: 2 * time.Millisecond},
		Obs:    reg,
		Tracer: tracer,
	})
	go link.Serve() //nolint:errcheck
	defer link.Close()

	// An unstarted monitor pinned to the netem-fronted relay path makes
	// the gateway's choice deterministic: every flow rides
	// gateway -> netem -> relay -> dest.
	mon, err := pathmon.New(pathmon.Config{Dest: destAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(link.Addr().String()))

	gw, err := gateway.New(gateway.Config{
		Dest:    destAddr,
		Monitor: mon,
		Obs:     reg,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwLn := mustListenCP(t)
	go gw.Serve(gwLn) //nolint:errcheck

	// One client flow: a couple of RTT probes, then close.
	conn, err := net.Dial("tcp", gwLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure.ProbeRTTContext(context.Background(), conn, 2, nil); err != nil {
		t.Fatalf("probe through traced path: %v", err)
	}
	_ = conn.Close()

	// The root span ends when the gateway's splice drains; the hop spans
	// end as their own splices notice the teardown.
	waitFor(t, 10*time.Second, "assembled trace with every hop span", func() bool {
		for _, tr := range tracer.Traces() {
			if tr.Root == "gateway.flow" && len(tr.Spans) >= 6 {
				return true
			}
		}
		return false
	})

	var trace flowtrace.Trace
	for _, tr := range tracer.Traces() {
		if tr.Root == "gateway.flow" {
			trace = tr
			break
		}
	}

	byName := make(map[string]flowtrace.SpanRecord)
	for _, s := range trace.Spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"gateway.flow", "gateway.dial", "chain.hop", "netem.shape", "relay.dial", "relay.splice"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace is missing span %q; have %+v", name, trace.Spans)
		}
	}

	// Parentage: the dial under the root, the per-hop CONNECT span under
	// the dial, every remote hop under chain.hop (its context rode the
	// CONNECT preamble).
	flow, dial, hopSpan := byName["gateway.flow"], byName["gateway.dial"], byName["chain.hop"]
	if flow.ParentID != "" {
		t.Errorf("gateway.flow has parent %s, want root", flow.ParentID)
	}
	if dial.ParentID != flow.SpanID {
		t.Errorf("gateway.dial parent = %s, want gateway.flow (%s)", dial.ParentID, flow.SpanID)
	}
	if hopSpan.ParentID != dial.SpanID {
		t.Errorf("chain.hop parent = %s, want gateway.dial (%s)", hopSpan.ParentID, dial.SpanID)
	}
	for _, hop := range []string{"netem.shape", "relay.dial", "relay.splice"} {
		if got := byName[hop].ParentID; got != hopSpan.SpanID {
			t.Errorf("%s parent = %s, want chain.hop (%s)", hop, got, hopSpan.SpanID)
		}
	}

	// Hop order by start time: the flow opens first, then the dial and its
	// per-hop CONNECT; the netem link sees the CONNECT preamble before the
	// relay dials out.
	order := []string{"gateway.flow", "gateway.dial", "chain.hop", "netem.shape", "relay.dial"}
	for i := 1; i < len(order); i++ {
		prev, cur := byName[order[i-1]], byName[order[i]]
		if cur.Start.Before(prev.Start) {
			t.Errorf("%s started %v before %s", order[i], prev.Start.Sub(cur.Start), order[i-1])
		}
	}

	// First-byte latency: recorded on the root, positive, and shorter
	// than the whole flow.
	if flow.FirstByteMS <= 0 {
		t.Errorf("gateway.flow first byte = %vms, want > 0", flow.FirstByteMS)
	}
	if flow.FirstByteMS >= flow.DurationMS {
		t.Errorf("first byte %vms >= total %vms", flow.FirstByteMS, flow.DurationMS)
	}
	if flow.Bytes <= 0 {
		t.Errorf("gateway.flow bytes = %d, want > 0", flow.Bytes)
	}

	// The /debug/traces surface: the ?trace= filter isolates the flow, a
	// bogus ID and an absurd min_dur return empty arrays.
	tracesSrv := httptest.NewServer(tracer.Handler())
	defer tracesSrv.Close()
	var got []flowtrace.Trace
	if err := json.Unmarshal([]byte(scrape(t, tracesSrv, "/?trace="+trace.TraceID)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TraceID != trace.TraceID {
		t.Fatalf("?trace= returned %d traces", len(got))
	}
	if err := json.Unmarshal([]byte(scrape(t, tracesSrv, "/?trace="+strings.Repeat("0", 32))), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("bogus trace ID returned %d traces", len(got))
	}
	if err := json.Unmarshal([]byte(scrape(t, tracesSrv, "/?min_dur=1h")), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("min_dur=1h returned %d traces", len(got))
	}

	// The completion event is on /debug/events, filterable by type.
	eventsSrv := httptest.NewServer(reg.EventsHandler())
	defer eventsSrv.Close()
	events := scrape(t, eventsSrv, "/?type=flow-trace")
	if !strings.Contains(events, trace.TraceID) {
		t.Errorf("/debug/events?type=flow-trace lacks trace %s:\n%s", trace.TraceID, events)
	}
}
