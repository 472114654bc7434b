package gateway

import (
	"context"
	"net"
	"testing"
	"time"

	"cronets/internal/pathmon"
)

// benchHandshakeRTT emulates the client→relay TCP-handshake round trip
// that loopback hides. A cold relay dial pays it on every Dial; a pooled
// dial paid it off the critical path when the filler warmed the socket.
const benchHandshakeRTT = time.Millisecond

// delayDialer sleeps for delay before every dial — a stand-in for the
// SYN/SYN-ACK round trip to a WAN relay.
type delayDialer struct {
	net.Dialer
	delay time.Duration
}

func (d *delayDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.Dialer.DialContext(ctx, network, addr)
}

// newBenchGateway builds a relay + pinned monitor + gateway whose relay
// leg costs benchHandshakeRTT to establish. poolSize 0 = pooling off.
func newBenchGateway(b *testing.B, poolSize int) (*Gateway, string) {
	b.Helper()
	dest := echoServer(b).String()
	rl := liveRelay(b)
	relayAddr := rl.Addr().String()

	mon, err := pathmon.New(pathmon.Config{Dest: dest, Fleet: []string{relayAddr}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = mon.Close() })
	mon.Pin(pathmon.MakeRoute(relayAddr))

	g, err := New(Config{
		Dest:     dest,
		Monitor:  mon,
		Dialer:   &delayDialer{delay: benchHandshakeRTT},
		PoolSize: poolSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = g.Close() })
	return g, relayAddr
}

// BenchmarkGatewayDialPooled measures relay dials riding warm pooled
// sockets: the handshake RTT is prepaid by the filler (off-timer), so
// each Dial costs one CONNECT round trip.
func BenchmarkGatewayDialPooled(b *testing.B) {
	g, relayAddr := newBenchGateway(b, 4)
	g.Pool().Fill()
	if g.Pool().Idle(relayAddr) == 0 {
		b.Fatal("pool failed to warm")
	}

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Pool().Idle(relayAddr) == 0 {
			b.StopTimer()
			g.Pool().Fill()
			b.StartTimer()
		}
		conn, _, err := g.Dial(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = conn.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if cold := g.Stats().DialsRelayCold.Load(); cold != 0 {
		b.Fatalf("%d dials fell back to cold; benchmark did not measure the pooled path", cold)
	}
}

// BenchmarkGatewayDialCold is the baseline: pooling off, every relay
// dial pays the handshake RTT plus the CONNECT round trip.
func BenchmarkGatewayDialCold(b *testing.B) {
	g, _ := newBenchGateway(b, 0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, _, err := g.Dial(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = conn.Close()
		b.StartTimer()
	}
}
