package connpool

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
)

// acceptServer accepts and holds connections like a CONNECT-mode relay
// waiting for a preamble, exposing them so tests can kill the relay side.
type acceptServer struct {
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func newAcceptServer(t *testing.T) *acceptServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &acceptServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
	})
	return s
}

func (s *acceptServer) addr() string { return s.ln.Addr().String() }

// closeAll closes every accepted connection — the relay restarting out
// from under its warm legs.
func (s *acceptServer) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
}

// fakeRanker is a mutable synthetic control-plane view.
type fakeRanker struct {
	mu     sync.Mutex
	best   pathmon.Route
	chosen bool
	table  []pathmon.RouteStatus
	subs   []chan struct{}
}

func (f *fakeRanker) Best() (pathmon.Route, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.best, f.chosen
}

func (f *fakeRanker) Ranked() []pathmon.RouteStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]pathmon.RouteStatus(nil), f.table...)
}

func (f *fakeRanker) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch, func() {}
}

// set swaps the ranking and wakes subscribers, like integrate does.
func (f *fakeRanker) set(best pathmon.Route, chosen bool, table []pathmon.RouteStatus) {
	f.mu.Lock()
	f.best, f.chosen, f.table = best, chosen, table
	subs := append([]chan struct{}(nil), f.subs...)
	f.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func relayStatus(addr string, down bool) pathmon.RouteStatus {
	return pathmon.RouteStatus{Route: pathmon.MakeRoute(addr), Down: down}
}

// bestRanker ranks the one relay at addr as the committed best route.
func bestRanker(addr string) *fakeRanker {
	rk := &fakeRanker{}
	rk.set(pathmon.MakeRoute(addr), true, []pathmon.RouteStatus{relayStatus(addr, false)})
	return rk
}

// waitIdle polls until relayAddr has exactly want warm connections.
func waitIdle(t *testing.T, p *Pool, relayAddr string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Idle(relayAddr) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("idle(%s) = %d, want %d", relayAddr, p.Idle(relayAddr), want)
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

func TestStaticWarmAndCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 2, Obs: reg})
	defer p.Close()
	waitIdle(t, p, srv.addr(), 2)

	conn, ok := p.Get(srv.addr())
	if !ok {
		t.Fatal("checkout missed on a warmed pool")
	}
	defer conn.Close()
	if got := counter(reg, "cronets_connpool_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	// The checkout kicked the filler: the pool re-warms to target.
	waitIdle(t, p, srv.addr(), 2)
}

func TestMissOnEmptyPool(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Ranker: bestRanker("127.0.0.1:1"), Obs: reg,
		FillInterval: time.Hour, DialTimeout: 100 * time.Millisecond})
	defer p.Close()

	if _, ok := p.Get("127.0.0.1:9"); ok {
		t.Fatal("checkout hit on a relay the pool never warmed")
	}
	if got := counter(reg, "cronets_connpool_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	// The dead relay's failed warm dials are counted.
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, "cronets_connpool_fill_errors_total") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if counter(reg, "cronets_connpool_fill_errors_total") == 0 {
		t.Error("no fill_errors recorded for an unreachable relay")
	}
}

func TestExpiryRetiresOldConns(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 1,
		IdleTTL: 50 * time.Millisecond, FillInterval: 10 * time.Millisecond, Obs: reg})
	defer p.Close()
	waitIdle(t, p, srv.addr(), 1)

	// The filler must rotate conns out at TTL and replace them.
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, "cronets_connpool_expired_total") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if counter(reg, "cronets_connpool_expired_total") == 0 {
		t.Fatal("no conns expired past IdleTTL")
	}
	waitIdle(t, p, srv.addr(), 1)
}

func TestExpiryAtCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	// FillInterval huge: only Get's own TTL check can retire the conn.
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 1,
		IdleTTL: 30 * time.Millisecond, FillInterval: time.Hour, Obs: reg})
	defer p.Close()
	waitIdle(t, p, srv.addr(), 1)

	time.Sleep(60 * time.Millisecond)
	if _, ok := p.Get(srv.addr()); ok {
		t.Fatal("checkout handed out a conn past its IdleTTL")
	}
	if got := counter(reg, "cronets_connpool_expired_total"); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

func TestDeadConnDetectedAtCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 2,
		FillInterval: time.Hour, Obs: reg})
	defer p.Close()
	waitIdle(t, p, srv.addr(), 2)

	// Relay restarts: every warm leg is dead, but the FINs are still in
	// flight from the pool's point of view.
	srv.closeAll()
	time.Sleep(20 * time.Millisecond)

	if _, ok := p.Get(srv.addr()); ok {
		t.Fatal("checkout handed out a dead connection")
	}
	if got := counter(reg, "cronets_connpool_expired_total"); got != 2 {
		t.Errorf("expired = %d, want 2 (both dead conns retired)", got)
	}
	if got := counter(reg, "cronets_connpool_hits_total"); got != 0 {
		t.Errorf("hits = %d, want 0", got)
	}
}

func TestRankingDrivenResize(t *testing.T) {
	srvA := newAcceptServer(t)
	srvB := newAcceptServer(t)
	rk := &fakeRanker{}
	rk.set(pathmon.MakeRoute(srvA.addr()), true, []pathmon.RouteStatus{
		relayStatus(srvA.addr(), false),
		relayStatus(srvB.addr(), false),
	})
	p := New(Config{Ranker: rk, SizePerRelay: 2, TopK: 1,
		FillInterval: time.Hour})
	defer p.Close()

	// Only the top-1 relay (A) is warmed.
	waitIdle(t, p, srvA.addr(), 2)
	waitIdle(t, p, srvB.addr(), 0)

	// The ranking flips: B leads, A demoted out of the top-K. The
	// subscription wakes the filler — A's idle conns drain, B warms.
	rk.set(pathmon.MakeRoute(srvB.addr()), true, []pathmon.RouteStatus{
		relayStatus(srvB.addr(), false),
		relayStatus(srvA.addr(), false),
	})
	waitIdle(t, p, srvB.addr(), 2)
	waitIdle(t, p, srvA.addr(), 0)
}

func TestBestPathAlwaysWarmedEvenIfDownRanked(t *testing.T) {
	srv := newAcceptServer(t)
	rk := &fakeRanker{}
	// Pinned best relay that the ranking calls Down (no probe samples
	// yet): the pool still warms it — traffic is about to use it.
	rk.set(pathmon.MakeRoute(srv.addr()), true, []pathmon.RouteStatus{
		relayStatus(srv.addr(), true),
	})
	p := New(Config{Ranker: rk, SizePerRelay: 1, FillInterval: time.Hour})
	defer p.Close()
	waitIdle(t, p, srv.addr(), 1)
}

func TestConcurrentCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	const size = 8
	// No background filler: it would re-warm the relay while the
	// checkouts race, handing out more than size conns.
	p := newPool(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: size, Obs: reg})
	defer p.Close()
	p.Fill()
	if got := p.Idle(srv.addr()); got != size {
		t.Fatalf("idle = %d after fill, want %d", got, size)
	}

	// 4x more checkouts than warm conns, all at once: every warm conn is
	// handed out exactly once (no double-checkout), the rest miss.
	var wg sync.WaitGroup
	var hits, misses int64
	var mu sync.Mutex
	conns := make([]net.Conn, 0, size)
	for i := 0; i < 4*size; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, ok := p.Get(srv.addr())
			mu.Lock()
			defer mu.Unlock()
			if ok {
				hits++
				conns = append(conns, conn)
			} else {
				misses++
			}
		}()
	}
	wg.Wait()
	for _, c := range conns {
		_ = c.Close()
	}
	if hits != size {
		t.Errorf("hits = %d, want %d", hits, size)
	}
	if misses != 3*size {
		t.Errorf("misses = %d, want %d", misses, 3*size)
	}
	if got := counter(reg, "cronets_connpool_hits_total"); got != size {
		t.Errorf("hits counter = %d, want %d", got, size)
	}
}

func TestCloseRetiresEverything(t *testing.T) {
	srv := newAcceptServer(t)
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 3,
		FillInterval: time.Hour})
	waitIdle(t, p, srv.addr(), 3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalIdle(); got != 0 {
		t.Errorf("TotalIdle = %d after Close, want 0", got)
	}
	if _, ok := p.Get(srv.addr()); ok {
		t.Error("checkout succeeded on a closed pool")
	}
	// Idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// slowClockDialer advances a fake clock inside every dial, simulating a
// warm dial that takes `delay` of simulated time to connect.
type slowClockDialer struct {
	inner   relay.Dialer
	advance func(time.Duration)
	delay   time.Duration
}

func (d *slowClockDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.advance(d.delay)
	return d.inner.DialContext(ctx, network, addr)
}

// TestIdleTTLMeasuredFromParkTime pins the IdleTTL semantics: expiry is
// measured from the instant a connection is parked in the pool, not from
// when its warm dial started — a slow dial must not hand the pool a
// connection that is already half-expired. (Checkouts never return
// connections to the pool, so park age and idle age are the same thing;
// this test is the contract for that equivalence.)
func TestIdleTTLMeasuredFromParkTime(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()

	now := time.Unix(1000, 0)
	adv := func(d time.Duration) { now = now.Add(d) }
	p := newPool(Config{
		Ranker: bestRanker(srv.addr()), SizePerRelay: 1, IdleTTL: time.Minute,
		Dialer: &slowClockDialer{inner: &net.Dialer{}, advance: adv, delay: 45 * time.Second},
		Obs:    reg,
	})
	defer p.Close()
	p.now = func() time.Time { return now }

	// The warm dial "takes" 45 simulated seconds before the conn parks.
	p.Fill()
	if got := p.Idle(srv.addr()); got != 1 {
		t.Fatalf("idle = %d after fill, want 1", got)
	}

	// 30 s of idleness: well under the 60 s TTL, even though 75 s have
	// passed since the dial started. Dial-start-age expiry would wrongly
	// retire the conn here.
	adv(30 * time.Second)
	conn, ok := p.Get(srv.addr())
	if !ok {
		t.Fatal("checkout expired a conn idle only 30s (TTL 60s) — expiry counted dial time")
	}
	_ = conn.Close()

	// Refill and idle past the TTL: now checkout must retire it.
	p.Fill()
	adv(61 * time.Second)
	if _, ok := p.Get(srv.addr()); ok {
		t.Fatal("checkout handed out a conn idle past IdleTTL")
	}
	if got := counter(reg, "cronets_connpool_expired_total"); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}

	// The filler's own pass expires by the same park-time rule.
	p.Fill() // parks a fresh conn (deficit of 1)
	adv(61 * time.Second)
	p.Fill()
	if got := counter(reg, "cronets_connpool_expired_total"); got != 2 {
		t.Errorf("expired = %d after fill-pass TTL sweep, want 2", got)
	}
}
