package cronets_test

// Control-plane end-to-end test — the acceptance scenario for the overlay
// control plane: a 3-relay fleet behind netem, a pathmon monitor, and a
// gateway. Degrading the direct path mid-run must steer the gateway's
// next connection onto the best relay within one probe interval plus the
// hysteresis window, with the switch visible both as a
// cronets_pathmon_switches_total increment in /metrics and as a
// path-switch flow event in /debug/events.

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cronets/internal/gateway"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
)

func mustListenCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func scrape(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestControlPlaneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("netem e2e is skipped in -short mode")
	}
	reg := obs.NewRegistry()

	// Destination: a measure server (the probe endpoint and the fronted
	// application in one).
	destLn := mustListenCP(t)
	dest := measure.NewServer(destLn)
	go dest.Serve() //nolint:errcheck
	defer dest.Close()
	destAddr := destLn.Addr().String()

	// Direct path through an emulated WAN link, initially 5 ms one-way.
	directLn := mustListenCP(t)
	directLink := netem.New(directLn, destAddr, netem.Config{
		Up:   netem.Impairment{Latency: 5 * time.Millisecond},
		Down: netem.Impairment{Latency: 5 * time.Millisecond},
		Obs:  reg,
	})
	go directLink.Serve() //nolint:errcheck
	defer directLink.Close()

	// 3-relay fleet, each behind its own netem link (10/12/15 ms one-way
	// — all worse than the healthy direct path, the best being relay 0).
	var fleet []string
	var relays []*relay.Relay
	for _, oneWay := range []time.Duration{10 * time.Millisecond, 12 * time.Millisecond, 15 * time.Millisecond} {
		relayLn := mustListenCP(t)
		rl := relay.New(relayLn, relay.Config{})
		go rl.Serve() //nolint:errcheck
		defer rl.Close()
		relays = append(relays, rl)

		linkLn := mustListenCP(t)
		link := netem.New(linkLn, relayLn.Addr().String(), netem.Config{
			Up:   netem.Impairment{Latency: oneWay},
			Down: netem.Impairment{Latency: oneWay},
		})
		go link.Serve() //nolint:errcheck
		defer link.Close()
		fleet = append(fleet, link.Addr().String())
	}

	const probeInterval = 300 * time.Millisecond
	mon, err := pathmon.New(pathmon.Config{
		Dest:         destAddr,
		DirectAddr:   directLink.Addr().String(),
		Fleet:        fleet,
		Interval:     probeInterval,
		ProbeTimeout: 2 * time.Second,
		ProbeCount:   2,
		Alpha:        0.5,
		SwitchMargin: 0.2,
		SwitchRounds: 2,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	gw, err := gateway.New(gateway.Config{
		Dest:       destAddr,
		DirectAddr: directLink.Addr().String(),
		Monitor:    mon,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// The exposition surface a scraper would see.
	metricsSrv := httptest.NewServer(reg.MetricsHandler())
	defer metricsSrv.Close()
	eventsSrv := httptest.NewServer(reg.EventsHandler())
	defer eventsSrv.Close()

	mon.Start()

	// Phase 1: healthy direct path wins.
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
	if _, err := measure.ProbeRTTContext(context.Background(), conn, 2, nil); err != nil {
		t.Fatalf("probe over healthy direct path: %v", err)
	}
	_ = conn.Close()
	if got := scrape(t, metricsSrv, "/"); !strings.Contains(got, "cronets_pathmon_switches_total 0") {
		t.Fatalf("/metrics before degradation:\n%s", got)
	}

	// Phase 2: degrade the direct path to 60 ms one-way (a 12x delay
	// step — congested transit) without touching the relays. The monitor
	// must move best to a relay within one probe interval + hysteresis
	// (2 qualifying rounds) + EWMA convergence; generously bounded here.
	directLink.SetImpairment(
		netem.Impairment{Latency: 60 * time.Millisecond},
		netem.Impairment{Latency: 60 * time.Millisecond},
	)
	degradeStart := time.Now()
	waitFor(t, 15*time.Second, "switch to a relay path", func() bool {
		best, ok := mon.Best()
		return ok && !best.IsDirect()
	})
	switchLatency := time.Since(degradeStart)
	t.Logf("path switch %v after degradation (interval %v)", switchLatency, probeInterval)

	best, _ := mon.Best()
	if best.First() != fleet[0] {
		// Not fatal — loopback jitter can favor relay 1 — but log it.
		t.Logf("best relay = %s, nominal best = %s", best.First(), fleet[0])
	}

	// The gateway's next connection must ride the relay.
	acceptedBefore := totalAccepted(relays)
	conn, path, err = gw.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if path.IsDirect() {
		t.Fatal("post-degradation dial still went direct")
	}
	if _, err := measure.ProbeRTTContext(context.Background(), conn, 2, nil); err != nil {
		t.Fatalf("probe over relay path: %v", err)
	}
	_ = conn.Close()
	if totalAccepted(relays) <= acceptedBefore {
		t.Fatal("no relay accepted the post-degradation connection")
	}

	// The switch must be visible to a scraper: counter in /metrics,
	// flow event in /debug/events.
	metrics := scrape(t, metricsSrv, "/")
	if !metricsCounterAtLeast(metrics, "cronets_pathmon_switches_total", 1) {
		t.Fatalf("cronets_pathmon_switches_total missing or zero in /metrics:\n%s", metrics)
	}
	if !strings.Contains(metrics, `cronets_pathmon_best_is_direct{objective="latency"} 0`) {
		t.Fatalf("cronets_pathmon_best_is_direct should be 0 after the switch:\n%s", metrics)
	}
	events := scrape(t, eventsSrv, "/")
	if !strings.Contains(events, `"path-switch"`) {
		t.Fatalf("no path-switch flow event in /debug/events:\n%s", events)
	}
	if !strings.Contains(events, `"impairment-change"`) {
		t.Fatalf("no impairment-change flow event in /debug/events:\n%s", events)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func totalAccepted(relays []*relay.Relay) int64 {
	var n int64
	for _, rl := range relays {
		n += rl.Stats().Accepted.Load()
	}
	return n
}

// metricsCounterAtLeast reports whether the Prometheus-text exposition
// carries the named series with a value >= min.
func metricsCounterAtLeast(metrics, name string, min int64) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return int64(v) >= min
	}
	return false
}
