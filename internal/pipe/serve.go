package pipe

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrServerClosed is returned by Server.Serve after Close, and by the
// Serve methods of every listener built on it.
var ErrServerClosed = errors.New("pipe: server closed")

// Server is the lifecycle every overlay listener shares (relay, gateway,
// netem, measure): the accept loop, the set of tracked connections, a
// context that Close cancels, and Close itself. The zero value is ready
// to use; a Server must not be copied after first use.
type Server struct {
	// OnAcceptError, if set, is called for every transient accept error
	// Serve survives, with the backoff it is about to wait. Set it before
	// Serve.
	OnAcceptError func(err error, backoff time.Duration)

	initOnce sync.Once
	ctx      context.Context
	cancel   context.CancelFunc

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		s.ctx, s.cancel = context.WithCancel(context.Background())
		s.conns = make(map[net.Conn]struct{})
	})
}

// Serve accepts connections on ln until Close. Each accepted connection
// is tracked, then handed to admit on the accept loop itself, so admit
// sees connections in accept order (the relay's capacity reservation,
// netem's connection numbering). admit returns the handler to run on the
// connection's own goroutine, or nil to close and drop the connection;
// the connection is untracked (and closed) when the handler returns.
//
// Transient accept errors (EMFILE, ENFILE, ECONNABORTED) are retried
// with a backoff that doubles from 5 ms up to 1 s; any other accept error
// is returned. Serve returns ErrServerClosed after Close, and on a closed
// Server it closes ln, as net/http.Server.Serve does.
func (s *Server) Serve(ln net.Listener, admit func(net.Conn) func(net.Conn)) error {
	s.init()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return ErrServerClosed
			}
			if ne, ok := err.(net.Error); !ok || !ne.Temporary() { //nolint:staticcheck // the net/http.Server accept-retry idiom
				return err
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			if s.OnAcceptError != nil {
				s.OnAcceptError(err, backoff)
			}
			select {
			case <-time.After(backoff):
			case <-s.ctx.Done():
			}
			continue
		}
		backoff = 0
		if !s.Track(conn) {
			return ErrServerClosed
		}
		handle := admit(conn)
		if handle == nil {
			s.Untrack(conn)
			continue
		}
		go func() {
			defer s.Untrack(conn)
			handle(conn)
		}()
	}
}

// Track registers c so Close closes it and waits for its Untrack. On a
// closed Server it closes c and reports false; the caller must then drop
// c without calling Untrack. Handlers track their upstream connections
// this way.
func (s *Server) Track(c net.Conn) bool {
	s.init()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	// Added under the mutex that sets closed, so no Add races Close's Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	return true
}

// Untrack closes c and releases the hold its Track put on Close. Call it
// once for every Track that reported true.
func (s *Server) Untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	_ = c.Close()
	s.wg.Done()
}

// Context returns a context that Close cancels: handlers dial and wait
// under it, so a shutdown aborts them instead of waiting them out.
func (s *Server) Context() context.Context {
	s.init()
	return s.ctx
}

// Addr returns the address of the listener being served (nil before
// Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close cancels the context, closes every tracked connection and the
// listener, then waits until every tracked connection is untracked. It
// returns the listener's close error.
func (s *Server) Close() error {
	s.init()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cancel()
	for c := range s.conns {
		_ = c.Close()
	}
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
