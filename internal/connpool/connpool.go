// Package connpool keeps a per-relay pool of pre-established,
// health-checked TCP connections so a gateway can send the CONNECT
// preamble on an already-open socket. Cold overlay connection setup costs
// two sequential round trips on the client->relay leg (TCP handshake,
// then CONNECT -> OK); a warm checkout pays only the second — the
// dominant term in short-flow TTFB, which is exactly where CRONets'
// split-TCP gains show up (PAPER.md Fig. 9).
//
// The pool follows the control plane: a background filler keeps the
// top-K ranked relays (plus the committed best path) warmed, re-warms a
// relay after every checkout, and lets a demoted relay's idle
// connections drain. Every pooled connection is liveness-checked with an
// expired-deadline zero-byte read before handout, so a relay restart
// costs a pool miss, never a broken flow. With no pool (or an empty
// one) callers fall back to a cold dial — behaviour is byte-identical,
// just one round trip slower.
package connpool

import (
	"context"
	"net"
	"strconv"
	"sync"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

const (
	// fillInterval is the background filler period: the TTL-expiry and
	// re-warm cadence between ranking wakeups.
	fillInterval = time.Second
	// topK is how many of the top-ranked usable relays stay warmed. The
	// committed best path's relay is always warmed, pinned or ranked.
	topK = 2
	// idleTTL is the maximum idle age of a pooled connection before the
	// pool retires it. Idle age is measured from the moment the
	// connection was parked in the pool (not from when the dial started),
	// and a checkout permanently removes the connection from the pool —
	// there is no put-back path, so a connection idles exactly once and
	// idle age equals pool-resident age. It stays under the relay fleet's
	// pre-CONNECT tolerance (the relay side allows its IdleTimeout, 5 min
	// by default).
	idleTTL = 60 * time.Second
)

// Config parameterizes a Pool.
type Config struct {
	// SizePerRelay is the warm-connection target per warmed relay
	// (default 2).
	SizePerRelay int
	// Ranker supplies relay rankings (usually a *pathmon.View);
	// required.
	Ranker pathmon.Ranker
	// Dialer overrides the relay dialer (tests).
	Dialer relay.Dialer
	// Obs receives the pool's metrics and events (nil disables
	// instrumentation).
	Obs *obs.Registry
}

// Pool is a per-relay warm-connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	cfg Config
	// now is the clock, injectable by TTL tests.
	now func() time.Time

	hits       *obs.Counter
	misses     *obs.Counter
	expired    *obs.Counter
	fillErrors *obs.Counter
	scope      *obs.Scope

	mu     sync.Mutex
	idle   map[string][]*pooledConn // per-relay LIFO stacks, newest last
	closed bool

	fillc chan struct{} // coalesced filler kicks (checkout, miss)
	// ctx is the pool-lifetime context: the filler stops and every warm
	// dial in flight is abandoned when Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// pooledConn is one warm socket plus the instant it was parked in the
// pool, from which idleTTL expiry is measured. Checkouts remove the
// connection for good (flows own their sockets; nothing is put back), so
// time-since-parkedAt is both the idle age and the total pool-resident
// age — one timestamp serves both readings.
type pooledConn struct {
	conn     net.Conn
	parkedAt time.Time
}

// New creates a Pool and starts its background filler (which immediately
// runs one warming pass). Close releases everything.
func New(cfg Config) *Pool {
	p := newPool(cfg)
	p.wg.Add(1)
	go p.filler()
	return p
}

// newPool builds a Pool without starting the background filler — tests
// drive Fill directly under an injected clock.
func newPool(cfg Config) *Pool {
	if cfg.SizePerRelay <= 0 {
		cfg.SizePerRelay = 2
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	p := &Pool{
		cfg:   cfg,
		now:   time.Now,
		idle:  make(map[string][]*pooledConn),
		fillc: make(chan struct{}, 1),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.instrument(cfg.Obs)
	return p
}

func (p *Pool) instrument(reg *obs.Registry) {
	p.scope = reg.Scope("connpool")
	p.hits = reg.Counter("cronets_connpool_hits_total",
		"Checkouts served from a warm pooled connection.")
	p.misses = reg.Counter("cronets_connpool_misses_total",
		"Checkouts that found no usable pooled connection (cold-dial fallback).")
	p.expired = reg.Counter("cronets_connpool_expired_total",
		"Pooled connections retired: TTL expiry, failed liveness check, or drain of a demoted relay.")
	p.fillErrors = reg.Counter("cronets_connpool_fill_errors_total",
		"Warm dials that failed during a fill pass.")
	reg.GaugeFunc("cronets_connpool_size",
		"Warm connections currently pooled across all relays.",
		func() int64 { return int64(p.TotalIdle()) })
}

// Get checks out one warm connection to relayAddr, health-checking each
// candidate before handout (newest first) and retiring expired or dead
// ones. ok is false when nothing usable is pooled — the caller cold-dials
// and the filler is kicked so the next flow finds a warm leg.
func (p *Pool) Get(relayAddr string) (net.Conn, bool) {
	for {
		p.mu.Lock()
		stack := p.idle[relayAddr]
		if len(stack) == 0 {
			p.mu.Unlock()
			p.misses.Inc()
			p.kick()
			return nil, false
		}
		pc := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		p.idle[relayAddr] = stack[:len(stack)-1]
		p.mu.Unlock()

		if p.now().Sub(pc.parkedAt) > idleTTL || !alive(pc.conn) {
			_ = pc.conn.Close()
			p.expired.Inc()
			continue
		}
		p.hits.Inc()
		p.kick()
		return pc.conn, true
	}
}

// Idle returns the number of warm connections pooled for relayAddr.
func (p *Pool) Idle(relayAddr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[relayAddr])
}

// TotalIdle returns the number of warm connections pooled across relays.
func (p *Pool) TotalIdle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, stack := range p.idle {
		n += len(stack)
	}
	return n
}

// Close retires every pooled connection, abandons any warm dial in
// flight and stops the filler.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var all []*pooledConn
	for _, stack := range p.idle {
		all = append(all, stack...)
	}
	p.idle = make(map[string][]*pooledConn)
	p.mu.Unlock()
	p.cancel()
	for _, pc := range all {
		_ = pc.conn.Close()
	}
	p.wg.Wait()
	return nil
}

// kick wakes the filler without blocking (coalesced).
func (p *Pool) kick() {
	select {
	case p.fillc <- struct{}{}:
	default:
	}
}

// filler is the background warming loop: it re-fills on checkout kicks,
// ranking-change wakeups, and a steady fillInterval tick (which also
// drives TTL expiry of untouched connections).
func (p *Pool) filler() {
	defer p.wg.Done()
	rankc, unsub := p.cfg.Ranker.Subscribe()
	defer unsub()
	t := time.NewTicker(fillInterval)
	defer t.Stop()
	p.Fill()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		case <-p.fillc:
		case <-rankc:
		}
		p.Fill()
	}
}

// Fill runs one synchronous warming pass: compute the target set from
// the ranking, drain demoted relays and expired connections, then dial
// the deficits. Exported for deterministic warm-up (tests, benchmarks,
// pre-serving warm-up); the background filler calls it on its own
// cadence.
func (p *Pool) Fill() {
	targets := p.targets()

	// Phase 1 (under the lock): expire by TTL and drain relays that fell
	// out of the target set. Connections are closed outside the lock.
	var retire []*pooledConn
	now := p.now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for addr, stack := range p.idle {
		keep := stack[:0]
		_, wanted := targets[addr]
		for _, pc := range stack {
			if !wanted || now.Sub(pc.parkedAt) > idleTTL {
				retire = append(retire, pc)
			} else {
				keep = append(keep, pc)
			}
		}
		if len(keep) == 0 {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = keep
		}
	}
	deficits := make(map[string]int, len(targets))
	for addr, want := range targets {
		if have := len(p.idle[addr]); have < want {
			deficits[addr] = want - have
		}
	}
	p.mu.Unlock()
	for _, pc := range retire {
		_ = pc.conn.Close()
		p.expired.Inc()
	}
	if len(retire) > 0 {
		p.scope.Event(obs.EventPoolDrain,
			"retired "+strconv.Itoa(len(retire))+" conn(s)")
	}

	// Phase 2 (no lock): dial the deficits. One failure per relay per
	// pass — a down relay costs one probe, not SizePerRelay timeouts.
	for addr, n := range deficits {
		for i := 0; i < n; i++ {
			conn, err := p.warmDial(addr)
			if err != nil {
				p.fillErrors.Inc()
				p.scope.Event(obs.EventPoolWarm, "fail "+addr+": "+err.Error())
				break
			}
			if !p.put(addr, conn, targets) {
				return
			}
		}
	}
}

// warmDial opens one raw TCP connection to a relay (no preamble — the
// CONNECT handshake happens at checkout, on the flow's behalf). Close
// abandons it rather than waiting out pipe.DialTimeout.
func (p *Pool) warmDial(addr string) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(p.ctx, pipe.DialTimeout)
	defer cancel()
	return p.cfg.Dialer.DialContext(ctx, "tcp", addr)
}

// put parks a freshly dialed connection, re-validating that the pool is
// still open and the relay still wanted (the ranking may have moved while
// the dial was in flight). Returns false when the pool has closed.
func (p *Pool) put(addr string, conn net.Conn, targets map[string]int) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return false
	}
	if want := targets[addr]; len(p.idle[addr]) >= want {
		p.mu.Unlock()
		_ = conn.Close()
		return true
	}
	p.idle[addr] = append(p.idle[addr], &pooledConn{conn: conn, parkedAt: p.now()})
	p.mu.Unlock()
	p.scope.Event(obs.EventPoolWarm, "ok "+addr)
	return true
}

// targets computes the warm set: the committed best path's relay plus
// the top-K usable ranked relays, each at SizePerRelay — so pool sizes
// follow the ranking and a demoted relay's idle connections drain.
func (p *Pool) targets() map[string]int {
	out := make(map[string]int)
	if best, ok := p.cfg.Ranker.Best(); ok && !best.IsDirect() {
		// Warming a route's first hop makes a pooled dial pay only the
		// per-hop CONNECT round trips, whatever the route's depth.
		out[best.First()] = p.cfg.SizePerRelay
	}
	ranked := 0
	seen := make(map[string]bool)
	for _, st := range p.cfg.Ranker.Ranked() {
		if ranked >= topK {
			break
		}
		if st.Route.IsDirect() || st.Down {
			continue
		}
		if seen[st.Route.First()] {
			// Routes sharing a first hop (a single-hop path and the chains
			// extending it, or two chains through the same entry relay)
			// warm one endpoint; don't let the duplicate burn a second
			// topK slot.
			continue
		}
		seen[st.Route.First()] = true
		out[st.Route.First()] = p.cfg.SizePerRelay
		ranked++
	}
	return out
}

// alive liveness-checks a pooled connection before handout. A healthy
// pre-CONNECT socket has nothing to send, so a pending FIN/RST (a
// restarted relay) or any readable byte (a protocol violation) retires
// it. On Unix the check is a non-blocking MSG_PEEK — zero added latency.
// Elsewhere it degrades to a zero-byte read under a near-expired
// deadline: Go short-circuits reads under an already-expired deadline
// before the syscall (verified empirically — a pending FIN goes unseen),
// so the deadline must sit just far enough ahead that the read syscall
// actually runs.
func alive(c net.Conn) bool {
	if ok, checked := rawAlive(c); checked {
		return ok
	}
	return deadlineAlive(c)
}

// deadlineAlive is the portable liveness fallback: a 1-byte read under a
// 1 ms deadline. Healthy sockets pay the full 1 ms (the read parks until
// the deadline), which is noise against a WAN RTT but real on loopback —
// hence the MSG_PEEK fast path above.
func deadlineAlive(c net.Conn) bool {
	if err := c.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return false
	}
	var b [1]byte
	n, err := c.Read(b[:])
	if n > 0 || !pipe.IsTimeout(err) {
		return false
	}
	return c.SetReadDeadline(time.Time{}) == nil
}
