package connpool

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
	"cronets/internal/servertest"
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
	reads  int // Ranked calls: one per Fill
}

func (f *fakeRanker) Best() (pathmon.Route, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.best, f.chosen
}

func (f *fakeRanker) Ranked() []pathmon.RouteStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	return append([]pathmon.RouteStatus(nil), f.table...)
}

func (f *fakeRanker) readCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
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
	p := New(Config{Ranker: bestRanker("127.0.0.1:1"), Obs: reg})
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
	p := newPool(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 1, Obs: reg})
	// The filler reads the clock, so it starts, as New starts it, only
	// once the skewable clock is in place.
	var skew atomic.Int64
	p.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	p.wg.Add(1)
	go p.filler()
	defer p.Close()
	waitIdle(t, p, srv.addr(), 1)

	// The filler must rotate conns out at TTL and replace them.
	skew.Store(int64(idleTTL + time.Second))
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, "cronets_connpool_expired_total") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if counter(reg, "cronets_connpool_expired_total") == 0 {
		t.Fatal("no conns expired past idleTTL")
	}
	waitIdle(t, p, srv.addr(), 1)
}

func TestExpiryAtCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	// No background filler: only Get's own TTL check can retire the conn.
	p := newPool(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 1, Obs: reg})
	defer p.Close()
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	p.Fill()
	if got := p.Idle(srv.addr()); got != 1 {
		t.Fatalf("idle = %d after fill, want 1", got)
	}

	now = now.Add(idleTTL + time.Second)
	if _, ok := p.Get(srv.addr()); ok {
		t.Fatal("checkout handed out a conn past its idleTTL")
	}
	if got := counter(reg, "cronets_connpool_expired_total"); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

func TestDeadConnDetectedAtCheckout(t *testing.T) {
	srv := newAcceptServer(t)
	reg := obs.NewRegistry()
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 2, Obs: reg})
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
	srvC := newAcceptServer(t)
	rk := &fakeRanker{}
	rk.set(pathmon.MakeRoute(srvA.addr()), true, []pathmon.RouteStatus{
		relayStatus(srvA.addr(), false),
		relayStatus(srvB.addr(), false),
		relayStatus(srvC.addr(), false),
	})
	p := New(Config{Ranker: rk, SizePerRelay: 2})
	defer p.Close()

	// Only the top-K relays (A and B) are warmed.
	waitIdle(t, p, srvA.addr(), 2)
	waitIdle(t, p, srvB.addr(), 2)
	waitIdle(t, p, srvC.addr(), 0)

	// The ranking flips: C leads, A demoted out of the top-K. The
	// subscription wakes the filler — A's idle conns drain, C warms — at
	// once, not on the next fillInterval tick. The flip lands just after
	// a tick's Fill has read the ranking (nothing else runs Fill here),
	// so a filler that waited for its tick would take about fillInterval.
	reads := rk.readCount()
	for deadline := time.Now().Add(2 * fillInterval); rk.readCount() == reads; {
		if time.Now().After(deadline) {
			t.Fatalf("no filler tick within %v", 2*fillInterval)
		}
		time.Sleep(time.Millisecond)
	}
	flipped := time.Now()
	rk.set(pathmon.MakeRoute(srvC.addr()), true, []pathmon.RouteStatus{
		relayStatus(srvC.addr(), false),
		relayStatus(srvB.addr(), false),
		relayStatus(srvA.addr(), false),
	})
	for p.Idle(srvC.addr()) != 2 || p.Idle(srvA.addr()) != 0 {
		if time.Since(flipped) > fillInterval/2 {
			t.Fatalf("%v after the flip: idle(C) = %d, idle(A) = %d, want 2 and 0 (the filler waited for its tick)",
				time.Since(flipped), p.Idle(srvC.addr()), p.Idle(srvA.addr()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBestPathAlwaysWarmedEvenIfDownRanked(t *testing.T) {
	srv := newAcceptServer(t)
	rk := &fakeRanker{}
	// Pinned best relay that the ranking calls Down (no probe samples
	// yet): the pool still warms it — traffic is about to use it.
	rk.set(pathmon.MakeRoute(srv.addr()), true, []pathmon.RouteStatus{
		relayStatus(srv.addr(), true),
	})
	p := New(Config{Ranker: rk, SizePerRelay: 1})
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
	p := New(Config{Ranker: bestRanker(srv.addr()), SizePerRelay: 3})
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

// TestIdleTTLMeasuredFromParkTime pins the idleTTL semantics: expiry is
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
		Ranker: bestRanker(srv.addr()), SizePerRelay: 1,
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
		t.Fatal("checkout handed out a conn idle past idleTTL")
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

// gateDialer parks each warm dial until release closes, then dials for
// real; dialing signals that a dial is parked.
type gateDialer struct {
	dialing chan struct{}
	release chan struct{}
}

func (d *gateDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	select {
	case d.dialing <- struct{}{}:
	default:
	}
	select {
	case <-d.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var nd net.Dialer
	return nd.DialContext(ctx, network, addr)
}

// TestCloseWithFillInFlight: a warm dial that completes while Close is
// waiting for the filler is closed, not parked, and Close gives back
// every goroutine and socket.
func TestCloseWithFillInFlight(t *testing.T) {
	check := servertest.CheckLeaks(t)
	srv := newAcceptServer(t)
	d := &gateDialer{dialing: make(chan struct{}, 1), release: make(chan struct{})}
	p := New(Config{Ranker: bestRanker(srv.addr()), Dialer: d})
	<-d.dialing // the filler's first Fill is mid-dial

	closed := make(chan struct{})
	go func() {
		_ = p.Close()
		close(closed)
	}()
	waitClosed(t, p)
	close(d.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if got := p.TotalIdle(); got != 0 {
		t.Errorf("TotalIdle = %d after Close, want 0", got)
	}
	_ = srv.ln.Close()
	srv.closeAll()
	check()
}

// stallDialer signals each warm dial on dialing and holds it until its
// context ends: a relay whose SYNs go unanswered.
type stallDialer struct{ dialing chan struct{} }

func (d *stallDialer) DialContext(ctx context.Context, _, _ string) (net.Conn, error) {
	d.dialing <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCloseAbandonsWarmDial: Close with a warm dial in flight returns at
// once, cancelling the dial instead of waiting out pipe.DialTimeout, and
// gives back every goroutine.
func TestCloseAbandonsWarmDial(t *testing.T) {
	check := servertest.CheckLeaks(t)
	d := &stallDialer{dialing: make(chan struct{}, 1)}
	p := New(Config{Ranker: bestRanker("192.0.2.1:9000"), Dialer: d})
	<-d.dialing // the filler's first Fill is mid-dial

	start := time.Now()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a warm dial in flight, want < 1 s", took)
	}
	check()
}

// waitClosed polls until Close has marked the pool closed.
func waitClosed(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pool never marked closed")
}
