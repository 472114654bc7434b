package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"cronets/internal/pipe"
)

// Every benchmark connection to the destination opens with an 8-byte
// header: a mode byte, three zero bytes, and a big-endian uint32 size.
const (
	modeEcho = 'R' // read size-byte frames and write each one back, until EOF
	modeBulk = 'B' // send size bytes of the seeded payload, then wait for EOF
	hdrLen   = 8
	// maxFrame bounds an echo frame.
	maxFrame = 64 << 10
)

// opDeadline bounds every socket op; expiry counts as a failure.
const opDeadline = 5 * time.Second

func header(mode byte, size int) []byte {
	h := make([]byte, hdrLen)
	h[0] = mode
	binary.BigEndian.PutUint32(h[4:], uint32(size))
	return h
}

// castagnoli is the CRC32C table bulk transfers are checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// server is a loopback TCP server that runs handle on every accepted
// connection and closes it afterwards; close stops it and waits for every
// handler. A handler may track further connections of its own on s.
type server struct {
	ln     net.Listener
	handle func(s *server, c net.Conn)

	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once closed
	wg    sync.WaitGroup
}

func startServer(handle func(s *server, c net.Conn)) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{ln: ln, handle: handle, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

func (s *server) serve() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(c) {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(c)
			s.handle(s, c)
		}()
	}
}

// track registers c for close, or closes it if the server is closed.
func (s *server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		_ = c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	_ = c.Close()
}

func (s *server) close() error {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// startDest starts the benchmark's own destination server. It is not
// part of the program: it stands in for whatever the overlay fronts. It
// echoes frames and serves downloads of payload; corrupt flips one byte
// of every reply and download, so a test can show that the benchmark's
// checks catch wrong bytes.
func startDest(payload []byte, corrupt bool) (*server, error) {
	return startServer(func(_ *server, c net.Conn) { serveDest(c, payload, corrupt) })
}

func serveDest(c net.Conn, payload []byte, corrupt bool) {
	var h [hdrLen]byte
	if _, err := io.ReadFull(c, h[:]); err != nil {
		return
	}
	size := int(binary.BigEndian.Uint32(h[4:]))
	switch h[0] {
	case modeEcho:
		if size <= 0 || size > maxFrame {
			return
		}
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if corrupt {
				buf[0] ^= 0xff
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	case modeBulk:
		if size <= 0 || size > len(payload) {
			return
		}
		out := payload[:size]
		if corrupt {
			out = append([]byte(nil), out...)
			out[size/2] ^= 0xff
		}
		if _, err := c.Write(out); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c)
	}
}

// seededBytes returns n bytes drawn from seed.
func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// echoOnce writes req and checks that the same bytes come back.
func echoOnce(c net.Conn, req, reply []byte) error {
	if _, err := c.Write(req); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return readEcho(c, req[len(req)-len(reply):], reply)
}

// readEcho reads one echoed frame into reply and compares it with want.
func readEcho(c net.Conn, want, reply []byte) error {
	if _, err := io.ReadFull(c, reply); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if !bytes.Equal(reply, want) {
		return errors.New("echoed bytes differ from the request")
	}
	return nil
}

// download requests size bytes of bulk payload on c and checks their
// CRC32C against want.
func download(c net.Conn, size int, want uint32, buf []byte) error {
	if _, err := c.Write(header(modeBulk, size)); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	sum := uint32(0)
	for got := 0; got < size; {
		n := min(len(buf), size-got)
		m, err := io.ReadFull(c, buf[:n])
		sum = crc32.Update(sum, castagnoli, buf[:m])
		got += m
		if err != nil {
			return fmt.Errorf("read after %d of %d bytes: %w", got, size, err)
		}
	}
	if sum != want {
		return fmt.Errorf("payload CRC32C %08x, want %08x", sum, want)
	}
	return nil
}

// startProxy starts a benchmark-owned one-hop forwarder to target, for
// the ladder rungs that sit between plain TCP and a relay: it dials the
// target for every accepted connection and joins the two with splice.
func startProxy(target string, splice func(a, b net.Conn)) (*server, error) {
	return startServer(func(s *server, down net.Conn) {
		up, err := net.Dial("tcp", target)
		if err != nil || !s.track(up) {
			return
		}
		defer s.untrack(up)
		splice(down, up)
	})
}

// kernelSplice joins a and b with io.Copy in each direction. Between two
// *net.TCPConn, Go performs the copy with splice(2), so no payload byte
// enters user space.
func kernelSplice(a, b net.Conn) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		copyHalf(b, a)
	}()
	copyHalf(a, b)
	<-done
}

func copyHalf(dst, src net.Conn) {
	if _, err := io.Copy(dst, src); err != nil {
		_ = dst.Close()
		_ = src.Close()
		return
	}
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
}

// pipeSplice joins a and b with the program's splice loop, at the relay's
// buffer size.
func pipeSplice(a, b net.Conn) {
	_, _ = pipe.Bidirectional(context.Background(), a, b, pipe.Options{BufferBytes: relayBufferBytes})
}
