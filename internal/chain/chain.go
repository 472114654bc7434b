// Package chain composes multi-hop overlay paths for the real data
// plane: an ordered list of relay CONNECT endpoints is dialed as one
// socket by issuing the CONNECT preamble hop by hop — relay N's upstream
// target is relay N+1's CONNECT endpoint, and the last relay's target is
// the destination. Each additional hop costs one preamble round trip
// through the already-established prefix of the chain, after which the
// flow is an ordinary spliced connection: every relay runs its own
// split-TCP loop over its own segment, which is exactly how the paper's
// §VII-B two-hop configuration composes backbone path diversity.
//
// The wire format is the iterated single-hop CONNECT handshake from
// internal/relay — relays need no code or protocol change to serve as a
// middle hop; they see a perfectly normal CONNECT whose target happens
// to be another relay.
package chain

import (
	"context"
	"errors"
	"fmt"
	"net"

	"cronets/internal/flowtrace"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// Options parameterizes a chain dial. The zero value is usable.
type Options struct {
	// Dialer opens the TCP leg to the first hop (default net.Dialer).
	Dialer relay.Dialer
	// Tracer records one chain.hop span per relay, each parented under
	// the previous hop's span (hop 0 parents under the context carried
	// in ctx), so a trace shows the preamble walking down the chain. Nil
	// disables tracing at zero cost.
	Tracer *flowtrace.Tracer
}

// HopError reports which hop of a chain dial failed. Unwrap exposes the
// underlying cause (relay.ErrRefused, a dial error, a context error), so
// callers can classify with errors.Is/As while still seeing the hop.
type HopError struct {
	// Hop is the 0-based index of the failing hop.
	Hop int
	// Relay is the CONNECT endpoint of the relay serving that hop.
	Relay string
	// Target is what that hop was asked to connect to (the next relay,
	// or the final destination).
	Target string
	// Err is the underlying failure.
	Err error
}

func (e *HopError) Error() string {
	return fmt.Sprintf("chain: hop %d (%s -> %s): %v", e.Hop, e.Relay, e.Target, e.Err)
}

func (e *HopError) Unwrap() error { return e.Err }

// Dial establishes one connection to target through the ordered relay
// chain: a TCP dial to hops[0], then one CONNECT per hop. A single-hop
// chain is the plain relayed dial: one CONNECT, one OK. The returned
// connection is the client's end of the fully spliced chain; per-hop
// failures return a *HopError and leave nothing open.
func Dial(ctx context.Context, hops []string, target string, opts Options) (net.Conn, error) {
	if len(hops) == 0 {
		return nil, errors.New("chain: no hops")
	}
	d := opts.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	dialCtx, cancel := hopContext(ctx)
	conn, err := d.DialContext(dialCtx, "tcp", hops[0])
	cancel()
	if err != nil {
		return nil, &HopError{Hop: 0, Relay: hops[0], Target: hops[0],
			Err: fmt.Errorf("dial first hop: %w", err)}
	}
	return Connect(ctx, conn, hops, target, opts)
}

// Connect walks the CONNECT preamble down an already-open socket to the
// relay serving hops[0] — the warm-pool path: the gateway checks a
// pre-established first-hop leg out of its pool and pays only the
// preamble round trips. Each hop's exchange gets its own deadline, one
// chain.hop span, and a typed *HopError on failure; the socket is closed
// on any error (relay.Connect owns that).
func Connect(ctx context.Context, conn net.Conn, hops []string, target string, opts Options) (net.Conn, error) {
	if len(hops) == 0 {
		_ = conn.Close()
		return nil, errors.New("chain: no hops")
	}
	parent := flowtrace.FromGoContext(ctx)
	for i, hop := range hops {
		next := target
		if i+1 < len(hops) {
			next = hops[i+1]
		}
		span := opts.Tracer.Continue("chain.hop", parent)
		hopCtx, cancel := hopContext(ctx)
		if span != nil {
			hopCtx = flowtrace.NewGoContext(hopCtx, span.Context())
		}
		relayed, err := relay.Connect(hopCtx, conn, next)
		cancel()
		if err != nil {
			span.SetDetail(fmt.Sprintf("fail %s -> %s", hop, next))
			span.End()
			return nil, &HopError{Hop: i, Relay: hop, Target: next, Err: err}
		}
		span.SetDetail(fmt.Sprintf("%s -> %s", hop, next))
		span.End()
		if span != nil {
			// The next hop's preamble travels through this hop's splice:
			// parent it under this hop's span so the trace nests the way
			// the bytes do.
			parent = span.Context()
		}
		conn = relayed
	}
	return conn, nil
}

// hopContext bounds one hop (its CONNECT exchange, and the first hop's
// TCP dial) by ctx's deadline or, when ctx has none, by
// pipe.DialTimeout.
func hopContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, pipe.DialTimeout)
}
