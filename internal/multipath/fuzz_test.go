package multipath

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseHeader feeds arbitrary bytes to the frame-header decoder, the
// code both channel ends run on every header from the network, and round
// trips fuzzed headers through the encoder. The seed corpus is in
// testdata/fuzz/FuzzParseHeader. Properties:
//   - the decoder never panics;
//   - it accepts a header exactly when it is 13 bytes or more, of a known
//     type, and, for a data frame, of length at most maxSeg; what it
//     accepts encodes back to the bytes it read;
//   - put then parseHeader returns the input header, or rejects it when
//     the type is unknown or a data frame is over maxSeg.
func FuzzParseHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, maxSeg uint32, typ byte, seq uint64, length uint32) {
		h, err := parseHeader(b, int(maxSeg))
		valid := len(b) >= headerSize && acceptable(b[0], binary.BigEndian.Uint32(b[9:headerSize]), maxSeg)
		if valid != (err == nil) {
			t.Fatalf("parseHeader(%x, %d) = %+v, %v", b, maxSeg, h, err)
		}
		if err == nil {
			var enc [headerSize]byte
			h.put(enc[:])
			if !bytes.Equal(enc[:], b[:headerSize]) {
				t.Fatalf("decoded %x as %+v, which encodes to %x", b[:headerSize], h, enc)
			}
		}

		in := header{typ: typ, seq: seq, length: length}
		var buf [headerSize]byte
		in.put(buf[:])
		out, err := parseHeader(buf[:], int(maxSeg))
		if acceptable(typ, length, maxSeg) {
			if err != nil || out != in {
				t.Fatalf("round trip of %+v = %+v, %v", in, out, err)
			}
		} else if err == nil {
			t.Fatalf("accepted %+v with maxSeg %d", in, maxSeg)
		}
	})
}

// acceptable restates the decoder's contract: a known frame type and, for
// a data frame, a length of at most maxSeg.
func acceptable(typ byte, length, maxSeg uint32) bool {
	switch typ {
	case frameData:
		return length <= maxSeg
	case frameAck, frameFin, frameSubAck, frameJoin:
		return true
	}
	return false
}
