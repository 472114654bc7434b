package tunnel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cronets/internal/flowtrace"
)

// FuzzReadFrame feeds arbitrary bytes to the frame and packet decoders,
// the code a tunnel endpoint runs on bytes from the network, and round
// trips fuzzed bodies and contexts through the encoders. The seed corpus
// is in testdata/fuzz/FuzzReadFrame. Properties:
//   - ReadFrame and then UnmarshalPacket never panic;
//   - a length word above MaxFrameSize fails after reading only that word;
//   - a returned context is the zero Context or has a non-zero trace;
//   - a packet UnmarshalPacket accepts comes back from MarshalInto and
//     UnmarshalPacket with the same protocol, addresses, ports and payload;
//   - WriteFrame then ReadFrame returns the same body, and the context
//     when it is sampled with a non-zero trace (else the zero Context).
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire, body, trace []byte, span uint64, sampled bool) {
		in := bytes.NewBuffer(wire)
		got, tc, err := NewFramer(in).ReadFrame()
		if len(wire) >= 4 && binary.BigEndian.Uint32(wire)&^traceFlag > MaxFrameSize {
			if !errors.Is(err, ErrFrameTooLarge) || in.Len() != len(wire)-4 {
				t.Fatalf("oversize length word: err %v, %d of %d bytes left, want ErrFrameTooLarge after 4", err, in.Len(), len(wire))
			}
		}
		if err == nil {
			if tc != (flowtrace.Context{}) && tc.IsZero() {
				t.Fatalf("context %+v has a zero trace", tc)
			}
			if p, err := UnmarshalPacket(got); err == nil {
				buf := make([]byte, packetHeaderSize+len(p.Payload))
				n, err := p.MarshalInto(buf)
				q, qerr := UnmarshalPacket(buf[:n])
				if err != nil || qerr != nil || q.Proto != p.Proto || q.Src != p.Src || q.Dst != p.Dst || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("packet %+v round-tripped to %+v (%v, %v)", p, q, err, qerr)
				}
			}
		}

		var c flowtrace.Context
		copy(c.Trace[:], trace)
		c.Span = span &^ (1 << 63) // the wire's span word keeps bit 63 for the sampled flag
		c.Sampled = sampled
		want := flowtrace.Context{}
		if c.Sampled && !c.IsZero() {
			want = c
		}
		var stream bytes.Buffer
		fr := NewFramer(&stream)
		if err := fr.WriteFrame(body, c); len(body) > MaxFrameSize {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("WriteFrame(%d bytes) = %v, want ErrFrameTooLarge", len(body), err)
			}
			return
		} else if err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(body), err)
		}
		gotBody, gotCtx, err := fr.ReadFrame()
		if err != nil || !bytes.Equal(gotBody, body) || gotCtx != want {
			t.Fatalf("round trip = %q, %+v, %v; want %q, %+v", gotBody, gotCtx, err, body, want)
		}
	})
}
