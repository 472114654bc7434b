//go:build linux

package pipe

import (
	"net"
	"os"
	"syscall"
)

// spliceNonblock (SPLICE_F_NONBLOCK) keeps the pipe side of a splice call
// from blocking: a call that would wait returns EAGAIN, and the goroutine
// parks in the netpoller rather than holding an OS thread.
const spliceNonblock = 0x2

// spliceRest moves the rest of one direction from src to dst with
// splice(2), through a kernel pipe that holds at most pipeBytes: the
// pipe is the split-TCP relay buffer. It keeps copyHalf's contracts: the
// idle watch is touched after each chunk read, m counts each chunk
// written, EOF half-closes, and an error is returned for the caller to
// close both conns. It reports handled false, having moved nothing, when
// the conns are not both *net.TCPConn, or when the pipe cannot be made or
// sized (counted in SpliceFallbacks); the caller then keeps a user
// buffer.
func spliceRest(dst, src net.Conn, pipeBytes int, idle *idleWatch, m *meter) (handled bool, err error) {
	dtc, dok := dst.(*net.TCPConn)
	stc, sok := src.(*net.TCPConn)
	if !dok || !sok {
		return false, nil
	}
	rd, rerr := stc.SyscallConn()
	wr, werr := dtc.SyscallConn()
	if rerr != nil || werr != nil {
		return false, nil
	}
	rfd, wfd, err := newPipe(pipeBytes)
	if err != nil {
		spliceFallbacks.Add(1)
		return false, nil
	}
	defer func() {
		_ = syscall.Close(rfd)
		_ = syscall.Close(wfd)
	}()
	spliced.Add(1)

	// The two callbacks run on this goroutine, inside RawConn.Read and
	// RawConn.Write. They are built once, so a chunk costs two splice
	// calls and no allocation.
	var inPipe int // bytes drained and not yet pumped
	var serr error // the splice error a callback hit
	// drain moves what the socket holds into the empty pipe. Because the
	// pipe is empty, EAGAIN means the socket has nothing to read; zero
	// bytes means EOF.
	drain := func(fd uintptr) bool {
		for {
			n, err := syscall.Splice(int(fd), nil, wfd, nil, pipeBytes, spliceNonblock)
			switch err {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			case nil:
				inPipe = int(n)
			default:
				serr = os.NewSyscallError("splice", err)
			}
			return true
		}
	}
	// pump empties the pipe into the socket, counting each chunk written.
	pump := func(fd uintptr) bool {
		for inPipe > 0 {
			n, err := syscall.Splice(rfd, nil, int(fd), nil, inPipe, spliceNonblock)
			if n > 0 {
				inPipe -= int(n)
				m.add(int(n))
				continue
			}
			switch err {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			}
			serr = os.NewSyscallError("splice", err)
			return true
		}
		return true
	}

	for {
		if err := rd.Read(drain); err != nil {
			return true, err
		}
		if serr != nil {
			return true, serr
		}
		if inPipe == 0 {
			halfClose(dst, src)
			return true, nil
		}
		idle.touch()
		if err := wr.Write(pump); err != nil {
			return true, err
		}
		if serr != nil {
			return true, serr
		}
	}
}

// newPipe makes a non-blocking kernel pipe that holds at least size
// bytes. It fails when pipe2 does (EMFILE), or when F_SETPIPE_SZ cannot
// reach size: an unprivileged process gets EPERM once its user's pipes
// pass /proc/sys/fs/pipe-user-pages-soft.
func newPipe(size int) (rfd, wfd int, err error) {
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		return -1, -1, err
	}
	_, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(p[0]), syscall.F_SETPIPE_SZ, uintptr(size))
	if errno != 0 {
		_ = syscall.Close(p[0])
		_ = syscall.Close(p[1])
		return -1, -1, errno
	}
	return p[0], p[1], nil
}
