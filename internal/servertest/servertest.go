// Package servertest holds test helpers for the overlay's listeners
// (relay, gateway, netem, measure, all built on pipe.Server): a
// goroutine and file-descriptor leak check, and a listener that fails
// accepts the way a process out of file descriptors does.
package servertest

import (
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// CheckLeaks snapshots the goroutine count and the open file descriptors
// and returns a func that compares them with the snapshot: call it once
// everything started after the snapshot is closed. Goroutines and
// sockets are released asynchronously, so it polls for up to 5 s before
// failing t. The fd check is skipped where /proc/self/fd is absent.
func CheckLeaks(t testing.TB) func() {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	fds, haveFDs := openFDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			g := runtime.NumGoroutine()
			f, _ := openFDs()
			if g <= goroutines && (!haveFDs || f <= fds) {
				return
			}
			if time.Now().After(deadline) {
				if g > goroutines {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Errorf("%d goroutine(s) leaked (%d running, %d before):\n%s", g-goroutines, g, goroutines, buf)
				}
				if haveFDs && f > fds {
					t.Errorf("%d fd(s) leaked (%d open, %d before)", f-fds, f, fds)
				}
				return
			}
			// Collecting lets finalizers close descriptors the runtime
			// caches, such as the pipes io.Copy's splice(2) pools.
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// EMFILEListener wraps ln so that its first n Accepts fail with the error
// accept(2) returns when the process is out of file descriptors.
func EMFILEListener(ln net.Listener, n int) net.Listener {
	return &emfileListener{Listener: ln, remaining: n}
}

type emfileListener struct {
	net.Listener
	remaining int // only the serving goroutine calls Accept
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.remaining > 0 {
		l.remaining--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(),
			Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}
