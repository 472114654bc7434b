package pipe

import (
	"context"
	"errors"
	"net"
	"time"
)

// DialTimeout is the one dial bound: every dial on the overlay, and each
// chain hop whose context carries no deadline, gives up after it.
const DialTimeout = 10 * time.Second

// Expired is a deadline long past: set on a conn, it fails the I/O in
// flight at once, and all I/O after it until the deadline is cleared.
var Expired = time.Unix(1, 0)

// Binding pins a conn's deadline to a context for one exchange on the
// conn (a CONNECT handshake, echo probes, a throughput burst, a
// multipath JOIN): the conn's deadline is the context's, and the context
// ending expires it, so I/O in flight fails instead of outliving the
// context. It is a value, so a binding allocates only the context's
// watch.
type Binding struct {
	conn net.Conn
	stop func() bool
}

// BindContext starts an exchange on conn bounded by ctx. Release it once
// the exchange is over, on every path.
func BindContext(ctx context.Context, conn net.Conn) Binding {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	return Binding{conn: conn, stop: context.AfterFunc(ctx, func() { _ = conn.SetDeadline(Expired) })}
}

// Release ends the exchange and reports whether the context ended first.
// If it did not, Release clears the deadline, and the conn outlives the
// context. If it did, the deadline is expired, or about to be, and stays
// so: a caller that hands the conn on must then fail the exchange with
// the context's error, even if its I/O succeeded.
func (b Binding) Release() (ctxEnded bool) {
	if !b.stop() {
		return true
	}
	_ = b.conn.SetDeadline(time.Time{})
	return false
}

// ContextErr returns ctx's error in place of err when err is the I/O
// failure a Binding to ctx caused, so callers see context.Canceled or
// context.DeadlineExceeded rather than a bare timeout; otherwise err.
func ContextErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	// The netpoller can fail the I/O a beat before ctx's own timer ends
	// it: a timeout at or past ctx's deadline is still the context's.
	if dl, ok := ctx.Deadline(); ok && IsTimeout(err) && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return err
}

// IsTimeout reports whether err is a deadline expiry: a net.Error that
// timed out (an expired conn deadline, a dial timeout) or
// context.DeadlineExceeded.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, context.DeadlineExceeded)
}
