package flowtrace

import (
	"encoding/binary"
	"encoding/hex"
)

// TraceID identifies one end-to-end flow trace.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Context is the trace state propagated across overlay hops: which trace
// a flow belongs to, which span the next hop should parent under, and
// whether the flow is sampled. An unsampled (or zero) Context is never
// put on the wire — hops only see contexts worth recording.
type Context struct {
	Trace   TraceID
	Span    uint64
	Sampled bool
}

// WireSize is the binary encoding length: 16-byte trace ID plus an
// 8-byte span word whose top bit carries the sampling flag (span IDs are
// generated with that bit clear).
const WireSize = 24

// TextSize is the hex text encoding length (2 chars per wire byte).
const TextSize = 2 * WireSize

// sampledBit is bit 63 of the wire span word.
const sampledBit = uint64(1) << 63

// IsZero reports whether the context carries no trace.
func (c Context) IsZero() bool { return c.Trace.IsZero() }

// EncodeBinary writes the 24-byte wire form into dst, which must hold at
// least WireSize bytes, and returns WireSize.
func (c Context) EncodeBinary(dst []byte) int {
	copy(dst[:16], c.Trace[:])
	word := c.Span &^ sampledBit
	if c.Sampled {
		word |= sampledBit
	}
	binary.BigEndian.PutUint64(dst[16:WireSize], word)
	return WireSize
}

// DecodeBinary parses a 24-byte wire context. ok is false, and c the zero
// Context, if b is short or the trace ID is zero.
func DecodeBinary(b []byte) (c Context, ok bool) {
	if len(b) < WireSize {
		return Context{}, false
	}
	copy(c.Trace[:], b[:16])
	if c.Trace.IsZero() {
		return Context{}, false
	}
	word := binary.BigEndian.Uint64(b[16:WireSize])
	c.Span = word &^ sampledBit
	c.Sampled = word&sampledBit != 0
	return c, true
}

// EncodeText returns the 48-hex-character text form used in the relay
// CONNECT preamble.
func (c Context) EncodeText() string {
	var wire [WireSize]byte
	c.EncodeBinary(wire[:])
	return hex.EncodeToString(wire[:])
}

// DecodeText parses the text form produced by EncodeText (either hex
// case).
func DecodeText(s string) (Context, bool) {
	var wire [WireSize]byte
	if len(s) != TextSize {
		return Context{}, false
	}
	if _, err := hex.Decode(wire[:], []byte(s)); err != nil {
		return Context{}, false
	}
	return DecodeBinary(wire[:])
}
