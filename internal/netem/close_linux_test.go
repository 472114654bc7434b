package netem

import (
	"net"
	"strconv"
	"syscall"
	"testing"
	"time"

	"cronets/internal/servertest"
)

// fullListener returns the address of a listening socket whose accept
// queue is full, so a further connect hangs: Linux drops its SYNs.
func fullListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // this connect hung: the queue is full
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	t.Fatal("accept queue never filled")
	return ""
}

// acceptSignal reports each connection its listener accepts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestCloseAbortsDialInFlight: Close while the upstream dial of an
// accepted connection hangs returns at once instead of waiting out the
// 10 s dial timeout, and leaks nothing.
func TestCloseAbortsDialInFlight(t *testing.T) {
	target := fullListener(t)
	check := servertest.CheckLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 1)
	p := New(acceptSignal{Listener: ln, accepted: accepted}, target, Config{})
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("proxy never accepted")
	}

	start := time.Now()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a dial in flight, want < 1 s", took)
	}
	<-done
	_ = conn.Close()
	check()
}
