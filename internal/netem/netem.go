// Package netem provides a network-emulation TCP proxy for tests and
// examples: per-direction one-way latency, jitter, and rate limiting over
// real sockets, standing in for the wide-area path conditions (long RTTs,
// thin links) that the paper's overlays route around. It shapes the byte
// stream; packet loss is exercised at the simulation layer (internal/
// tcpsim) where TCP dynamics are modeled.
package netem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// Impairment describes one direction's shaping.
type Impairment struct {
	// Latency is the added one-way delay.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each chunk's delay.
	Jitter time.Duration
	// RateMbps caps the direction's throughput (0 = unlimited).
	RateMbps float64
}

// chunkBytes is the shaping granularity: the largest chunk the shaper
// delays as one. Smaller chunks emulate latency more faithfully at more
// CPU cost. A direction reads 4 KiB chunks until its first read fills
// one, then chunkBytes.
const chunkBytes = 16 << 10

// Config shapes both directions of a proxied connection.
type Config struct {
	// Up shapes client -> target; Down shapes target -> client.
	Up, Down Impairment
	// Seed drives jitter and probabilistic fault arming; 0 uses a fixed
	// default. All connections through a proxy share one seeded source,
	// so an impairment run is reproducible end to end.
	Seed int64
	// Faults scripts path failures (kills, blackholes, refused
	// connects); the zero value injects nothing.
	Faults FaultPlan
	// Obs receives shaping metrics and fault events (nil disables
	// instrumentation).
	Obs *obs.Registry
	// Tracer records a netem.shape span per connection whose first
	// upstream chunk opens with a CONNECT line the relay would accept
	// with a sampled trace context — the shaper is a transparent
	// middlebox, so it reads the passing handshake with the relay's
	// parser instead of being handed a context. Nil disables tracing at
	// zero cost.
	Tracer *flowtrace.Tracer
}

// Proxy is a shaping TCP proxy with a fixed target.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener

	// impMu guards the live impairment pair, which SetImpairment may swap
	// mid-run; shaping goroutines re-read it at every chunk.
	impMu    sync.RWMutex
	up, down Impairment

	// rng is the proxy's single jitter source: seedable for reproducible
	// impairment runs, mutex-guarded because every shaping goroutine
	// draws from it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// connSeq numbers accepted connections so fault rules can target
	// "the Nth connection"; refuseN is the remaining refuse budget.
	connSeq atomic.Int64
	refuseN atomic.Int64

	shapedUp   *obs.Counter
	shapedDown *obs.Counter
	delayHist  *obs.Histogram
	faults     *obs.Counter
	refused    *obs.Counter
	scope      *obs.Scope

	// srv owns the accept loop and shutdown; its context, cancelled by
	// Close, aborts upstream dials and releases blackholed directions.
	srv pipe.Server
}

// New creates a shaping proxy listening on ln and forwarding to target.
func New(ln net.Listener, target string, cfg Config) *Proxy {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Proxy{
		cfg:    cfg,
		target: target,
		ln:     ln,
		up:     cfg.Up,
		down:   cfg.Down,
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.refuseN.Store(int64(cfg.Faults.RefuseConns))
	p.shapedUp = cfg.Obs.Counter(obs.Label("cronets_netem_shaped_bytes_total", "dir", "up"),
		"Bytes forwarded through the shaper by direction.")
	p.shapedDown = cfg.Obs.Counter(obs.Label("cronets_netem_shaped_bytes_total", "dir", "down"),
		"Bytes forwarded through the shaper by direction.")
	p.delayHist = cfg.Obs.Histogram("cronets_netem_added_delay_seconds",
		"Artificial delay (latency + jitter) added per forwarded chunk.",
		obs.LatencyBuckets)
	p.faults = cfg.Obs.Counter("cronets_netem_faults_total",
		"Faults injected (kills, blackholes, refused connects).")
	p.refused = cfg.Obs.Counter("cronets_netem_refused_total",
		"Inbound connections refused by the fault plan.")
	p.scope = cfg.Obs.Scope("netem")
	return p
}

// SetImpairment replaces both directions' shaping at runtime — a live
// "path degrades mid-run" lever for tests and demos. In-flight
// connections pick up the new impairment at their next chunk; nothing is
// reconnected.
func (p *Proxy) SetImpairment(up, down Impairment) {
	p.impMu.Lock()
	p.up, p.down = up, down
	p.impMu.Unlock()
	p.scope.Event(obs.EventImpairmentChange,
		fmt.Sprintf("up{lat=%v jit=%v rate=%g} down{lat=%v jit=%v rate=%g}",
			up.Latency, up.Jitter, up.RateMbps, down.Latency, down.Jitter, down.RateMbps))
}

// Impairments returns the current shaping pair.
func (p *Proxy) Impairments() (up, down Impairment) {
	p.impMu.RLock()
	defer p.impMu.RUnlock()
	return p.up, p.down
}

// impairment returns one direction's current shaping.
func (p *Proxy) impairment(isUp bool) Impairment {
	p.impMu.RLock()
	defer p.impMu.RUnlock()
	if isUp {
		return p.up
	}
	return p.down
}

// jitter draws a uniform [0, max) duration from the proxy's seeded source.
func (p *Proxy) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(max)))
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Serve accepts and shapes connections until Close. It always returns a
// non-nil error (pipe.ErrServerClosed after a clean shutdown).
func (p *Proxy) Serve() error {
	return p.srv.Serve(p.ln, p.admit)
}

// admit numbers connections in accept order, so fault rules can target
// "the Nth connection", and spends the refuse budget.
func (p *Proxy) admit(net.Conn) func(net.Conn) {
	idx := p.connSeq.Add(1) - 1
	if p.tryRefuse(idx) {
		return nil
	}
	return func(down net.Conn) { p.handle(idx, down) }
}

// Close stops the proxy and closes live connections.
func (p *Proxy) Close() error {
	err := p.srv.Close()
	_ = p.ln.Close() // a proxy closed before Serve still owns its listener
	return err
}

func (p *Proxy) handle(idx int64, down net.Conn) {
	ctx, cancel := context.WithTimeout(p.srv.Context(), pipe.DialTimeout)
	var d net.Dialer
	up, err := d.DialContext(ctx, "tcp", p.target)
	cancel()
	if err != nil || !p.srv.Track(up) {
		return
	}
	defer p.srv.Untrack(up)

	upRules, downRules, all := p.armFaults(idx, down, up)
	defer func() {
		for _, a := range all {
			a.stop()
		}
	}()

	// The shared data-plane loop carries the bytes; shaping, rate pacing,
	// and fault triggers ride the per-chunk hook. Each direction keeps
	// its own shaper state.
	upShape := &shaper{p: p, isUp: true, shaped: p.shapedUp, rules: upRules}
	downShape := &shaper{p: p, isUp: false, shaped: p.shapedDown, rules: downRules}
	var span *flowtrace.Span
	joined := false
	res, _ := pipe.Bidirectional(context.Background(), down, up, pipe.Options{
		BufferBytes: chunkBytes,
		Hook: func(dir pipe.Dir, chunk []byte, write pipe.WriteFunc) error {
			if dir == pipe.AToB {
				if !joined {
					joined = true
					span = p.joinTrace(chunk)
				}
				return upShape.shape(chunk, write)
			}
			span.MarkFirstByte()
			return downShape.shape(chunk, write)
		},
	})
	span.AddBytes(res.AToB + res.BToA)
	span.End()
}

// joinTrace opens a netem.shape span when first, a connection's first
// upstream chunk, opens with a CONNECT line the relay would accept with a
// sampled trace context. The shaper is a transparent middlebox: it reads
// that line with the relay's own parser and stays silent otherwise.
func (p *Proxy) joinTrace(first []byte) *flowtrace.Span {
	if p.cfg.Tracer == nil {
		return nil
	}
	nl := bytes.IndexByte(first, '\n')
	if nl < 0 {
		return nil
	}
	target, tc, err := relay.ParseConnectTrace(string(first[:nl+1]))
	if err != nil {
		return nil
	}
	span := p.cfg.Tracer.Continue("netem.shape", tc)
	// A copy, so the span in the tracer's ring does not pin the line.
	span.SetDetail(strings.Clone(target))
	return span
}

// errBlackholed aborts a parked direction once the proxy shuts down.
var errBlackholed = errors.New("netem: blackholed direction released at shutdown")

// shaper is one direction's impairment state over the shared loop.
type shaper struct {
	p      *Proxy
	isUp   bool
	shaped *obs.Counter
	rules  []*armedRule

	budget time.Time // rate-limit pacing horizon
	fwd    int64     // bytes forwarded in this direction
}

// shape applies the direction's impairment to one chunk (re-reading the
// live impairment per piece so SetImpairment takes effect mid-flow),
// drawing jitter from the proxy's seeded source and recording shaped
// bytes + added delay. Byte-offset fault triggers are enforced exactly
// (the chunk is split at the offset) and a blackholed direction parks
// here, keeping the sockets open, until the proxy closes.
func (s *shaper) shape(chunk []byte, write pipe.WriteFunc) error {
	p := s.p
	for len(chunk) > 0 {
		// A blackholed direction parks until the proxy closes, keeping
		// both sockets open — the silent-failure mode.
		for _, a := range s.rules {
			if a.blackhole.Load() {
				<-p.srv.Context().Done()
				return errBlackholed
			}
		}
		imp := p.impairment(s.isUp)
		// Split the chunk at the nearest pending byte-offset trigger
		// so the fault lands exactly on its offset.
		n := len(chunk)
		for _, a := range s.rules {
			if a.rule.AfterBytes > s.fwd && a.rule.AfterBytes < s.fwd+int64(n) {
				n = int(a.rule.AfterBytes - s.fwd)
			}
		}
		delay := imp.Latency + p.jitter(imp.Jitter)
		if imp.RateMbps > 0 {
			cost := time.Duration(float64(n*8) / (imp.RateMbps * 1e6) * float64(time.Second))
			now := time.Now()
			if s.budget.Before(now) {
				s.budget = now
			}
			s.budget = s.budget.Add(cost)
			if wait := time.Until(s.budget); wait > 0 {
				time.Sleep(wait)
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		p.delayHist.Observe(delay.Seconds())
		if err := write(chunk[:n]); err != nil {
			return err
		}
		s.shaped.Add(int64(n))
		s.fwd += int64(n)
		chunk = chunk[n:]
		for _, a := range s.rules {
			if a.rule.AfterBytes > 0 && s.fwd >= a.rule.AfterBytes {
				a.fire(fmt.Sprintf("at %d bytes", s.fwd))
			}
		}
	}
	return nil
}
