package gateway

// Table-driven coverage for the Dial fallback ladder using a scripted
// in-memory dialer — no sockets, no netem, no timing. Each case scripts
// which endpoints fail, and asserts the exact walk order over the ranked
// candidates, the route the dial lands on, and the termination rules:
// direct stays inside the maxAttempts truncation as the last resort, and
// context cancellation stops the walk instead of burning the remaining
// candidates.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"cronets/internal/pathmon"
)

// scriptedRanker is a static Ranker: a fixed best route and ranked table.
type scriptedRanker struct {
	best   pathmon.Route
	chosen bool
	table  []pathmon.RouteStatus
}

func (r *scriptedRanker) Best() (pathmon.Route, bool)   { return r.best, r.chosen }
func (r *scriptedRanker) Ranked() []pathmon.RouteStatus { return r.table }
func (r *scriptedRanker) Subscribe() (<-chan struct{}, func()) {
	return make(chan struct{}), func() {}
}

// scriptedDialer hands out in-memory pipes whose far end speaks the
// relay CONNECT protocol (one "OK" per preamble line, so chains of any
// depth succeed), fails the endpoints it is scripted to fail, and
// records the dial order.
type scriptedDialer struct {
	mu     sync.Mutex
	dialed []string
	fail   map[string]bool
	onDial func(addr string) // runs after recording, before the verdict
}

func (d *scriptedDialer) DialContext(_ context.Context, _, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.dialed = append(d.dialed, addr)
	fail := d.fail[addr]
	d.mu.Unlock()
	if d.onDial != nil {
		d.onDial(addr)
	}
	if fail {
		return nil, errors.New("scripted dial failure: " + addr)
	}
	client, server := net.Pipe()
	go answerConnects(server)
	return client, nil
}

func (d *scriptedDialer) order() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.dialed...)
}

// answerConnects acks every CONNECT preamble line on the pipe's far end,
// standing in for an arbitrarily deep relay chain.
func answerConnects(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if !strings.HasPrefix(line, "CONNECT ") {
			return
		}
		if _, err := io.WriteString(c, "OK\n"); err != nil {
			return
		}
	}
}

func TestDialFallbackLadder(t *testing.T) {
	const (
		directAddr = "direct.test:1"
		relayA     = "relay-a.test:9000"
		relayB     = "relay-b.test:9000"
		relayC     = "relay-c.test:9000"
	)
	up := func(r pathmon.Route) pathmon.RouteStatus { return pathmon.RouteStatus{Route: r} }

	cases := []struct {
		name       string
		best       pathmon.Route
		chosen     bool
		table      []pathmon.RouteStatus
		fail       []string // endpoints whose dials fail
		cancelOn   string   // cancel the dial context after this endpoint's attempt
		wantDialed []string // exact endpoint walk (first hops + direct addr)
		wantRoute  pathmon.Route
		wantErr    bool
	}{
		{
			name:       "best route wins without fallback",
			best:       pathmon.MakeRoute(relayA),
			chosen:     true,
			table:      []pathmon.RouteStatus{up(pathmon.MakeRoute(relayA)), up(pathmon.Direct)},
			wantDialed: []string{relayA},
			wantRoute:  pathmon.MakeRoute(relayA),
		},
		{
			name:   "ranked candidates fail in order until one answers",
			best:   pathmon.MakeRoute(relayA, relayB),
			chosen: true,
			table: []pathmon.RouteStatus{
				up(pathmon.MakeRoute(relayA, relayB)),
				up(pathmon.MakeRoute(relayC)),
				up(pathmon.Direct),
			},
			fail:       []string{relayA, relayC},
			wantDialed: []string{relayA, relayC, directAddr},
			wantRoute:  pathmon.Direct,
		},
		{
			// Three ranked relays and the cap of three attempts: a plain
			// cut would dial C and never reach direct.
			name:   "direct survives MaxAttempts truncation",
			best:   pathmon.MakeRoute(relayA),
			chosen: true,
			table: []pathmon.RouteStatus{
				up(pathmon.MakeRoute(relayA)),
				up(pathmon.MakeRoute(relayB)),
				up(pathmon.MakeRoute(relayC)),
			},
			fail:       []string{relayA, relayB},
			wantDialed: []string{relayA, relayB, directAddr},
			wantRoute:  pathmon.Direct,
		},
		{
			name:   "three-hop chain dials only its first hop",
			best:   pathmon.MakeRoute(relayA, relayB, relayC),
			chosen: true,
			table: []pathmon.RouteStatus{
				up(pathmon.MakeRoute(relayA, relayB, relayC)),
				up(pathmon.Direct),
			},
			wantDialed: []string{relayA},
			wantRoute:  pathmon.MakeRoute(relayA, relayB, relayC),
		},
		{
			name:   "context cancellation stops the walk",
			best:   pathmon.MakeRoute(relayA),
			chosen: true,
			table: []pathmon.RouteStatus{
				up(pathmon.MakeRoute(relayA)),
				up(pathmon.MakeRoute(relayB)),
				up(pathmon.Direct),
			},
			fail:       []string{relayA, relayB, directAddr},
			cancelOn:   relayA,
			wantDialed: []string{relayA},
			wantErr:    true,
		},
		{
			name:       "every candidate dead",
			best:       pathmon.MakeRoute(relayA),
			chosen:     true,
			table:      []pathmon.RouteStatus{up(pathmon.MakeRoute(relayA))},
			fail:       []string{relayA, directAddr},
			wantDialed: []string{relayA, directAddr},
			wantErr:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dialer := &scriptedDialer{fail: make(map[string]bool)}
			for _, addr := range tc.fail {
				dialer.fail[addr] = true
			}
			if tc.cancelOn != "" {
				dialer.onDial = func(addr string) {
					if addr == tc.cancelOn {
						cancel()
					}
				}
			}
			gw, err := New(Config{
				Dest:       "dest.test:7",
				DirectAddr: directAddr,
				Monitor:    &scriptedRanker{best: tc.best, chosen: tc.chosen, table: tc.table},
				Dialer:     dialer,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()

			conn, route, err := gw.Dial(ctx)
			if tc.wantErr {
				if err == nil {
					conn.Close()
					t.Fatalf("Dial succeeded on %v, want error", route)
				}
			} else {
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				conn.Close()
				if route != tc.wantRoute {
					t.Errorf("landed on %v, want %v", route, tc.wantRoute)
				}
			}
			got := dialer.order()
			if len(got) != len(tc.wantDialed) {
				t.Fatalf("dialed %v, want %v", got, tc.wantDialed)
			}
			for i := range got {
				if got[i] != tc.wantDialed[i] {
					t.Fatalf("dialed %v, want %v", got, tc.wantDialed)
				}
			}
		})
	}
}
