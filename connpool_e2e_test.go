package cronets_test

// Warm-pool end-to-end test — the acceptance scenario for the gateway's
// pre-warmed relay connection pool: a relay behind netem (the CONNECT
// round trip costs a real WAN RTT) fronted by a delaying dialer (the
// client→relay TCP handshake RTT, which netem cannot emulate because the
// kernel completes loopback handshakes locally). A pooled dial must beat
// a cold dial by roughly the handshake RTT: the pool filler prepaid it
// off the critical path, so Dial only pays the CONNECT leg.

import (
	"context"
	"net"
	"testing"
	"time"

	"cronets/internal/gateway"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
)

// handshakeDelayDialer sleeps before dialing, emulating the SYN/SYN-ACK
// round trip to a WAN relay.
type handshakeDelayDialer struct {
	net.Dialer
	delay time.Duration
}

func (d *handshakeDelayDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.Dialer.DialContext(ctx, network, addr)
}

func TestWarmPoolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("netem e2e is skipped in -short mode")
	}
	const (
		oneWay       = 25 * time.Millisecond // netem per-direction latency on the relay leg
		handshakeRTT = 50 * time.Millisecond // emulated client→relay TCP handshake
	)
	reg := obs.NewRegistry()

	destLn := mustListenCP(t)
	dest := measure.NewServer(destLn)
	go dest.Serve() //nolint:errcheck
	defer dest.Close()
	destAddr := destLn.Addr().String()

	relayLn := mustListenCP(t)
	rl := relay.New(relayLn, relay.Config{})
	go rl.Serve() //nolint:errcheck
	defer rl.Close()

	linkLn := mustListenCP(t)
	link := netem.New(linkLn, relayLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: oneWay},
		Down: netem.Impairment{Latency: oneWay},
	})
	go link.Serve() //nolint:errcheck
	defer link.Close()
	relayAddr := link.Addr().String()

	mon, err := pathmon.New(pathmon.Config{
		Dest:  destAddr,
		Fleet: []string{relayAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.Pin(pathmon.MakeRoute(relayAddr))

	dialer := &handshakeDelayDialer{delay: handshakeRTT}
	gwPooled, err := gateway.New(gateway.Config{
		Dest:     destAddr,
		Monitor:  mon,
		Dialer:   dialer,
		PoolSize: 2,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gwPooled.Close()
	gwCold, err := gateway.New(gateway.Config{
		Dest:    destAddr,
		Monitor: mon,
		Dialer:  dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gwCold.Close()

	waitFor(t, 10*time.Second, "pool warm-up", func() bool {
		return gwPooled.Pool().Idle(relayAddr) >= 2
	})

	// Dial each gateway a few times and keep the fastest attempt: the
	// floor is the deterministic part (sleeps + netem latency); scheduler
	// noise only adds.
	fastest := func(g *gateway.Gateway, warm bool) time.Duration {
		best := time.Hour
		for i := 0; i < 3; i++ {
			if warm {
				waitFor(t, 10*time.Second, "pool re-warm", func() bool {
					return g.Pool().Idle(relayAddr) >= 1
				})
			}
			start := time.Now()
			conn, path, err := g.Dial(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if path.IsDirect() {
				t.Fatal("dial went direct; pinned best is the relay")
			}
			// The leg is usable end to end.
			if _, err := measure.ProbeRTTContext(context.Background(), conn, 1, nil); err != nil {
				t.Fatalf("probe over dialed path: %v", err)
			}
			_ = conn.Close()
		}
		return best
	}

	pooled := fastest(gwPooled, true)
	cold := fastest(gwCold, false)
	t.Logf("dial latency: pooled %v, cold %v (handshake RTT %v, CONNECT leg %v)",
		pooled, cold, handshakeRTT, 2*oneWay)

	// Cold pays handshake + CONNECT (~100 ms); pooled only CONNECT
	// (~50 ms). Demand at least half the handshake RTT of separation so
	// loopback jitter cannot fake a pass or a failure.
	if pooled >= cold-handshakeRTT/2 {
		t.Fatalf("pooled dial (%v) did not eliminate the handshake RTT vs cold (%v)", pooled, cold)
	}
	if got := gwPooled.Stats().DialsRelayPooled.Load(); got != 3 {
		t.Fatalf("DialsRelayPooled = %d, want 3", got)
	}
	if got := reg.Counter("cronets_connpool_hits_total", "").Value(); got < 3 {
		t.Fatalf("cronets_connpool_hits_total = %d, want >= 3", got)
	}

	// One more pooled flow, multi-round-trip: warm legs carry sustained
	// request/response traffic, not just the handshake.
	conn, _, err := gwPooled.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := measure.ProbeRTTContext(context.Background(), conn, 2, nil); err != nil {
		t.Fatalf("second probe over pooled path: %v", err)
	}
}
