// Package measure provides iperf-style throughput measurement and
// application-level RTT probing over real sockets — the measurement side
// of the real-socket overlay stack (the simulated experiments use
// internal/tcpsim's instrumentation instead).
//
// Protocol: the client sends a one-byte mode ('S' sink, 'E' echo). In sink
// mode the server discards everything it reads. In echo mode the server
// echoes fixed-size 16-byte probe frames back.
package measure

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Mode bytes of the measurement protocol.
const (
	modeSink = 'S'
	modeEcho = 'E'
)

// probeSize is the echo frame size.
const probeSize = 16

// Server is a measurement responder (sink + echo).
type Server struct {
	ln  net.Listener
	srv pipe.Server
}

// NewServer wraps a listener as a measurement server.
func NewServer(ln net.Listener) *Server {
	return &Server{ln: ln}
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts and handles measurement connections until Close. It
// always returns a non-nil error (pipe.ErrServerClosed after Close).
func (s *Server) Serve() error {
	return s.srv.Serve(s.ln, s.admit)
}

// admit serves every accepted connection.
func (s *Server) admit(net.Conn) func(net.Conn) { return s.handle }

// Close stops the server and closes live connections.
func (s *Server) Close() error {
	err := s.srv.Close()
	_ = s.ln.Close() // a server closed before Serve still owns its listener
	return err
}

func (s *Server) handle(conn net.Conn) {
	var mode [1]byte
	if _, err := io.ReadFull(conn, mode[:]); err != nil {
		return
	}
	switch mode[0] {
	case modeSink:
		buf := pipe.Get(256 << 10)
		defer pipe.Put(buf)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	case modeEcho:
		frame := pipe.Get(probeSize)
		defer pipe.Put(frame)
		for {
			if _, err := io.ReadFull(conn, frame); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}
}

// Result is one throughput measurement.
type Result struct {
	// Mbps is the achieved goodput in megabits per second.
	Mbps float64
	// Bytes is the payload volume sent.
	Bytes int64
	// Elapsed is the wall-clock measurement duration.
	Elapsed time.Duration
}

// ErrTruncatedBurst reports a throughput burst that could not sustain its
// full configured window — the deadline expired or the path failed
// mid-upload. A truncated window measures goodput over a shorter interval
// than configured (a systematic underestimate on slow-start-dominated
// windows), so it is a failure, never a sample.
var ErrTruncatedBurst = errors.New("measure: throughput burst truncated")

// Throughput runs one iperf-style burst over an established connection to
// a measure.Server, which may pass through relays: the sink-mode byte,
// then a timed upload of exactly duration in chunkBytes writes (default
// 128 KiB). The connection's deadline tracks ctx, so a blackholed path
// (zero-window peer, silent middlebox) fails instead of hanging the
// caller. Any upload error — ctx expiring mid-window included — is
// ErrTruncatedBurst wrapping the cause: callers get a full window's Mbps
// or an error, never a number measured over less than duration.
func Throughput(ctx context.Context, conn net.Conn, duration time.Duration, chunkBytes int) (Result, error) {
	stop := pinDeadline(ctx, conn)
	defer stop()
	if _, err := conn.Write([]byte{modeSink}); err != nil {
		return Result{}, ctxError(ctx, fmt.Errorf("measure: sink preamble: %w", err))
	}
	if chunkBytes <= 0 {
		chunkBytes = 128 << 10
	}
	buf := pipe.Get(chunkBytes)
	defer pipe.Put(buf)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	var sent int64
	for time.Since(start) < duration {
		n, err := conn.Write(buf)
		sent += int64(n)
		if err != nil {
			err = ctxError(ctx, fmt.Errorf("measure: throughput write: %w", err))
			return Result{}, fmt.Errorf("%w: %w", ErrTruncatedBurst, err)
		}
	}
	elapsed := time.Since(start)
	return Result{
		Mbps:    float64(sent) * 8 / elapsed.Seconds() / 1e6,
		Bytes:   sent,
		Elapsed: elapsed,
	}, nil
}

// RTTStats summarizes an RTT probe run.
type RTTStats struct {
	Min, Avg, Max time.Duration
	Samples       int
}

// ProbeRTTContext measures application-level round-trip time with count
// echo probes (default 10) over a connection to a measure.Server,
// recording each sample into hist (typically
// cronets_measure_probe_rtt_seconds; nil is ignored). The connection's
// deadline tracks ctx, so a dead or blackholed path fails within the
// context budget instead of blocking a probe round forever.
func ProbeRTTContext(ctx context.Context, conn net.Conn, count int, hist *obs.Histogram) (RTTStats, error) {
	if count <= 0 {
		count = 10
	}
	stop := pinDeadline(ctx, conn)
	defer stop()
	if _, err := conn.Write([]byte{modeEcho}); err != nil {
		return RTTStats{}, ctxError(ctx, fmt.Errorf("measure: echo preamble: %w", err))
	}
	frame := make([]byte, probeSize)
	var stats RTTStats
	var total time.Duration
	for i := 0; i < count; i++ {
		frame[0] = byte(i)
		start := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return RTTStats{}, ctxError(ctx, fmt.Errorf("measure: probe write: %w", err))
		}
		if _, err := io.ReadFull(conn, frame); err != nil {
			return RTTStats{}, ctxError(ctx, fmt.Errorf("measure: probe read: %w", err))
		}
		rtt := time.Since(start)
		hist.ObserveDuration(rtt)
		total += rtt
		if stats.Samples == 0 || rtt < stats.Min {
			stats.Min = rtt
		}
		if rtt > stats.Max {
			stats.Max = rtt
		}
		stats.Samples++
	}
	stats.Avg = total / time.Duration(stats.Samples)
	return stats, nil
}

// pinDeadline pins conn's deadline to ctx: ctx's deadline (if any) applies
// at once, and cancelling ctx force-expires it, unblocking in-flight I/O.
// The returned stop releases the watch and clears the deadline, unless ctx
// has already ended.
func pinDeadline(ctx context.Context, conn net.Conn) (stop func()) {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	stopWatch := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	return func() {
		if stopWatch() {
			_ = conn.SetDeadline(time.Time{})
		}
	}
}

// ctxError substitutes the context's error for a deadline-induced I/O
// error so callers see context.DeadlineExceeded/Canceled rather than a
// generic timeout.
func ctxError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("measure: %w", ctx.Err())
	}
	// pinDeadline pins the connection deadline to the context deadline,
	// and the netpoller can unblock the I/O a beat before the context's own
	// timer fires ctx.Done. A timeout observed at or past the context
	// deadline is therefore the context's doing even if ctx.Err() is still
	// nil at this instant.
	var ne net.Error
	if dl, ok := ctx.Deadline(); ok && errors.As(err, &ne) && ne.Timeout() && !time.Now().Before(dl) {
		return fmt.Errorf("measure: %w", context.DeadlineExceeded)
	}
	return err
}
