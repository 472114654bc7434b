// Package tunnel implements the userspace analog of the paper's overlay
// node plumbing: GRE-like packet encapsulation over a byte stream, and the
// Linux-IP-masquerade-style NAT table an overlay node uses so that return
// traffic flows back through it without the far endpoint having any tunnel
// configured (Section II).
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"cronets/internal/flowtrace"
	"cronets/internal/pipe"
)

// MaxFrameSize bounds a single encapsulated packet (64 KiB payload plus
// header room).
const MaxFrameSize = 64*1024 + 64

var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("tunnel: frame too large")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("tunnel: endpoint closed")
)

// traceFlag is bit 31 of the frame length word. Frame bodies are capped
// at MaxFrameSize (~64 KiB), leaving the high bits of the 32-bit length
// free; when the flag is set, a 24-byte flowtrace context sits between
// the length word and the body. Untraced frames are byte-identical to
// the pre-tracing wire format.
const traceFlag = uint32(1) << 31

// Framer reads and writes length-prefixed frames over a byte stream. It is
// safe for one concurrent reader and one concurrent writer.
type Framer struct {
	rmu sync.Mutex
	wmu sync.Mutex
	rw  io.ReadWriter

	rbuf [4]byte
	cbuf [flowtrace.WireSize]byte
}

// NewFramer wraps the stream.
func NewFramer(rw io.ReadWriter) *Framer {
	return &Framer{rw: rw}
}

// WriteFrame writes one length-prefixed frame. A sampled context rides
// in the frame header, so the far tunnel endpoint can continue the flow's
// trace; an unsampled or zero context writes a plain frame. Header and
// body go out in a single pooled write so a frame costs one syscall on a
// net.Conn and cannot interleave with another writer's header/body pair.
func (f *Framer) WriteFrame(p []byte, tc flowtrace.Context) error {
	if len(p) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	traced := tc.Sampled && !tc.IsZero()
	head := 4
	if traced {
		head += flowtrace.WireSize
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	buf := pipe.Get(head + len(p))
	word := uint32(len(p))
	if traced {
		word |= traceFlag
		tc.EncodeBinary(buf[4:head])
	}
	binary.BigEndian.PutUint32(buf[:4], word)
	copy(buf[head:], p)
	_, err := f.rw.Write(buf)
	pipe.Put(buf)
	if err != nil {
		return fmt.Errorf("tunnel: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame into a freshly allocated buffer, plus the
// trace context carried in its header (the zero Context for untraced
// frames, and for a flagged header whose context has a zero trace ID).
func (f *Framer) ReadFrame() ([]byte, flowtrace.Context, error) {
	f.rmu.Lock()
	defer f.rmu.Unlock()
	if _, err := io.ReadFull(f.rw, f.rbuf[:]); err != nil {
		return nil, flowtrace.Context{}, fmt.Errorf("tunnel: read frame header: %w", err)
	}
	word := binary.BigEndian.Uint32(f.rbuf[:])
	traced := word&traceFlag != 0
	word &^= traceFlag
	// Validate the length before consuming the trace context so a
	// corrupted header is rejected without reading further.
	if word > MaxFrameSize {
		return nil, flowtrace.Context{}, ErrFrameTooLarge
	}
	var tc flowtrace.Context
	if traced {
		if _, err := io.ReadFull(f.rw, f.cbuf[:]); err != nil {
			return nil, flowtrace.Context{}, fmt.Errorf("tunnel: read frame trace context: %w", err)
		}
		tc, _ = flowtrace.DecodeBinary(f.cbuf[:])
	}
	buf := make([]byte, word)
	if _, err := io.ReadFull(f.rw, buf); err != nil {
		return nil, flowtrace.Context{}, fmt.Errorf("tunnel: read frame body: %w", err)
	}
	return buf, tc, nil
}
