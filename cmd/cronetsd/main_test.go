package main

import (
	"context"
	"errors"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cronets/internal/chain"
	"cronets/internal/measure"
	"cronets/internal/pathmon"
)

// TestFlagsBindConfig: each flag lands in the Config field (or node
// setting) that its role reads, and with no flags each holds its
// documented default. A flag whose value stopped reaching its field
// fails its own case.
func TestFlagsBindConfig(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   func(n *node) bool
	}{
		{"defaults", nil, func(n *node) bool {
			return n.listen == ":9000" && n.gatewayAddr == "" && n.metricsAddr == "" &&
				n.statsEvery == 30*time.Second && n.traceRate == 0 &&
				n.relay.Target == "" && n.relay.ACL == nil &&
				n.relay.IdleTimeout == 5*time.Minute && n.gw.IdleTimeout == 5*time.Minute &&
				n.relay.MaxConns == 1024 &&
				n.relay.BufferBytes == 256<<10 && n.gw.BufferBytes == 256<<10 &&
				n.relay.DialRetries == 2 && n.relay.DialRetryBackoff == 50*time.Millisecond &&
				n.mon.Fleet == nil && n.mon.Dest == "" &&
				n.mon.Interval == 5*time.Second && n.objective == pathmon.ObjectiveLatency &&
				n.mon.BurstDuration == 0 && n.mon.BurstEvery == 1 &&
				n.mon.SwitchMargin == 0.1 && n.mon.SwitchRounds == 3 &&
				n.mon.MaxHops == 1 && n.mon.ChainCandidates == 3 && n.gw.PoolSize == 0
		}},
		{"listen", []string{"-listen", "127.0.0.1:7"}, func(n *node) bool { return n.listen == "127.0.0.1:7" }},
		{"target", []string{"-target", "10.0.0.2:443"}, func(n *node) bool {
			return n.relay.Target == "10.0.0.2:443" && n.gw.Dest == "10.0.0.2:443" && n.mon.Dest == "10.0.0.2:443"
		}},
		{"idle-timeout", []string{"-idle-timeout", "7s"}, func(n *node) bool {
			return n.relay.IdleTimeout == 7*time.Second && n.gw.IdleTimeout == 7*time.Second
		}},
		{"max-conns", []string{"-max-conns", "7"}, func(n *node) bool { return n.relay.MaxConns == 7 }},
		{"buffer-kb", []string{"-buffer-kb", "64"}, func(n *node) bool {
			return n.relay.BufferBytes == 64<<10 && n.gw.BufferBytes == 64<<10
		}},
		{"allow", []string{"-allow", "10.0.0.0/8,192.168.0.0/16"}, func(n *node) bool {
			return n.relay.ACL != nil && n.relay.ACL.Allow("10.1.2.3:80") &&
				n.relay.ACL.Allow("192.168.1.1:80") && !n.relay.ACL.Allow("8.8.8.8:53")
		}},
		{"metrics-addr", []string{"-metrics-addr", "127.0.0.1:7"}, func(n *node) bool { return n.metricsAddr == "127.0.0.1:7" }},
		{"stats-interval", []string{"-stats-interval", "7s"}, func(n *node) bool { return n.statsEvery == 7*time.Second }},
		{"dial-retries", []string{"-dial-retries", "7"}, func(n *node) bool { return n.relay.DialRetries == 7 }},
		{"dial-retry-backoff", []string{"-dial-retry-backoff", "7ms"}, func(n *node) bool {
			return n.relay.DialRetryBackoff == 7*time.Millisecond
		}},
		{"trace-sample-rate", []string{"-trace-sample-rate", "0.5"}, func(n *node) bool { return n.traceRate == 0.5 }},
		{"gateway-addr", []string{"-gateway-addr", "127.0.0.1:7"}, func(n *node) bool { return n.gatewayAddr == "127.0.0.1:7" }},
		{"fleet", []string{"-fleet", "r1:9000, r2:9000,"}, func(n *node) bool {
			return strings.Join(n.mon.Fleet, " ") == "r1:9000 r2:9000"
		}},
		{"probe-interval", []string{"-probe-interval", "7s"}, func(n *node) bool { return n.mon.Interval == 7*time.Second }},
		{"probe-target", []string{"-target", "d:7", "-probe-target", "p:9"}, func(n *node) bool {
			return n.mon.Dest == "p:9" && n.gw.Dest == "d:7"
		}},
		{"objective", []string{"-objective", "composite"}, func(n *node) bool {
			return n.objective == pathmon.ObjectiveComposite
		}},
		{"burst-duration", []string{"-burst-duration", "7ms"}, func(n *node) bool { return n.mon.BurstDuration == 7*time.Millisecond }},
		{"burst-every", []string{"-burst-every", "7"}, func(n *node) bool { return n.mon.BurstEvery == 7 }},
		{"switch-margin", []string{"-switch-margin", "0.25"}, func(n *node) bool { return n.mon.SwitchMargin == 0.25 }},
		{"switch-rounds", []string{"-switch-rounds", "7"}, func(n *node) bool { return n.mon.SwitchRounds == 7 }},
		{"pool-size", []string{"-pool-size", "7"}, func(n *node) bool { return n.gw.PoolSize == 7 }},
		{"max-hops", []string{"-max-hops", "3"}, func(n *node) bool { return n.mon.MaxHops == 3 }},
		{"chain-candidates", []string{"-chain-candidates", "7"}, func(n *node) bool { return n.mon.ChainCandidates == 7 }},
	}
	for _, c := range cases {
		n, err := parseFlags(c.args)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !c.ok(n) {
			t.Errorf("%s: %v parsed into %+v", c.name, c.args, *n)
		}
	}
}

// TestFlagErrors: a value its component would reject fails the parse.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-objective", "fastest"},
		{"-allow", "10.0.0.0/33"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v parsed without error", args)
		}
	}
}

// TestServeUntil: the one lifecycle both roles share logs a stats line
// each interval, and on stop logs the final stats and returns what Close
// returns; a serve that fails first returns its own error.
func TestServeUntil(t *testing.T) {
	var mu sync.Mutex
	var msgs []string
	logStats := func(msg string) {
		mu.Lock()
		msgs = append(msgs, msg)
		mu.Unlock()
	}
	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), msgs...)
	}

	stop := make(chan struct{})
	closed := make(chan struct{})
	errClosed := errors.New("closed")
	done := make(chan error, 1)
	go func() {
		done <- serveUntil(stop, time.Millisecond,
			func() error { <-closed; return errors.New("serve returned") },
			func() error { close(closed); return errClosed },
			logStats)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(logged()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stats lines after 5 s: %q, want 2", logged())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-done; err != errClosed {
		t.Fatalf("serveUntil after stop = %v, want Close's error", err)
	}
	got := logged()
	if got[0] != "stats" || got[len(got)-1] != "final stats" {
		t.Errorf("stats lines = %q, want stats first and final stats last", got)
	}

	// Serve fails first, with stats off: its error comes back and nothing
	// is logged.
	mu.Lock()
	msgs = nil
	mu.Unlock()
	errServe := errors.New("listener broke")
	err := serveUntil(make(chan struct{}), 0,
		func() error { time.Sleep(20 * time.Millisecond); return errServe },
		func() error { t.Error("Close called after serve failed"); return nil },
		logStats)
	if err != errServe {
		t.Errorf("serveUntil after a failed serve = %v, want %v", err, errServe)
	}
	if got := logged(); len(got) != 0 {
		t.Errorf("stats lines with -stats-interval 0: %q", got)
	}
}

// boundAddrs is a log handler that keeps the addr attribute of each log
// line by message. The node logs each listener's address once it is
// bound, so a test can give it port 0 and read back the port it got.
type boundAddrs struct {
	mu    sync.Mutex
	addrs map[string]string
}

func (b *boundAddrs) Enabled(context.Context, slog.Level) bool { return true }
func (b *boundAddrs) WithAttrs([]slog.Attr) slog.Handler       { return b }
func (b *boundAddrs) WithGroup(string) slog.Handler            { return b }

func (b *boundAddrs) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "addr" {
			b.mu.Lock()
			b.addrs[r.Message] = a.Value.String()
			b.mu.Unlock()
		}
		return true
	})
	return nil
}

// captureAddrs sends the default logger to a boundAddrs until the test
// ends. Call it before startNode, so the node has stopped logging by the
// time the default logger comes back.
func captureAddrs(t *testing.T) *boundAddrs {
	b := &boundAddrs{addrs: make(map[string]string)}
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(b))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		// SetDefault(prev) leaves the log package writing through b.
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return b
}

// addr waits for the log line msg and returns the address it reports.
func (b *boundAddrs) addr(t *testing.T, msg string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		addr, ok := b.addrs[msg]
		b.mu.Unlock()
		if ok {
			return addr
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q log line after 5 s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// destination starts a measure server: the fronted destination, and the
// gateway's probe target.
func destination(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := measure.NewServer(ln)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// startNode runs a node parsed from args until the test ends, then
// stops it and fails the test unless the role returns nil.
func startNode(t *testing.T, args ...string) {
	t.Helper()
	n, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- n.run(stop) }()
	t.Cleanup(func() {
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("role returned %v after stop", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("role did not return after stop")
		}
	})
}

// probe runs echo probes to the destination over a connection from dial.
func probe(t *testing.T, dial func(ctx context.Context) (net.Conn, error)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dial(ctx)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := measure.ProbeRTTContext(ctx, conn, 2, nil); err != nil {
		t.Fatalf("echo probes through the node: %v", err)
	}
}

// TestRelayRole: the relay role serves CONNECT flows in-process and
// returns nil when stopped (startNode's cleanup checks that).
func TestRelayRole(t *testing.T) {
	dest := destination(t)
	bound := captureAddrs(t)
	startNode(t, "-listen", "127.0.0.1:0", "-allow", "127.0.0.0/8", "-stats-interval", "0")
	addr := bound.addr(t, "cronetsd listening")
	probe(t, func(ctx context.Context) (net.Conn, error) {
		return chain.Dial(ctx, []string{addr}, dest, chain.Options{})
	})
}

// TestGatewayRole: the gateway role fronts its target, serves its
// metrics endpoints, and returns nil when stopped. /metrics carries the
// gauges of the view -objective selects, next to the latency view's, and
// /debug/paths serves that view's table.
func TestGatewayRole(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"latency", nil},
		{"composite", []string{"-objective", "composite"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dest := destination(t)
			bound := captureAddrs(t)
			startNode(t, append([]string{"-gateway-addr", "127.0.0.1:0", "-target", dest,
				"-probe-interval", "50ms", "-metrics-addr", "127.0.0.1:0", "-stats-interval", "0"}, c.args...)...)
			gwAddr := bound.addr(t, "cronetsd gateway listening")
			metricsAddr := bound.addr(t, "metrics listening")
			probe(t, func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", gwAddr)
			})
			bodies := make(map[string]string)
			for _, path := range []string{"/healthz", "/debug/paths", "/metrics"} {
				resp, err := http.Get("http://" + metricsAddr + path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d %s", path, resp.StatusCode, body)
				}
				bodies[path] = string(body)
			}
			for _, obj := range []string{"latency", c.name} {
				for _, gauge := range []string{"cronets_pathmon_best_is_direct", "cronets_pathmon_route_mbps"} {
					if series := gauge + `{objective="` + obj + `"}`; !strings.Contains(bodies["/metrics"], series) {
						t.Errorf("/metrics lacks %s:\n%s", series, bodies["/metrics"])
					}
				}
			}
		})
	}
}

// TestGatewayRefusesThroughputWithoutBursts: a gateway ranked by throughput
// without bursts would never switch routes, so it refuses to start.
func TestGatewayRefusesThroughputWithoutBursts(t *testing.T) {
	n, err := parseFlags([]string{"-gateway-addr", "127.0.0.1:0", "-target", "127.0.0.1:1",
		"-objective", "throughput"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop) // a gateway that does start returns at once
	err = n.run(stop)
	if err == nil || !strings.Contains(err.Error(), "BurstDuration") {
		t.Fatalf("throughput gateway without bursts started: err = %v", err)
	}
}
