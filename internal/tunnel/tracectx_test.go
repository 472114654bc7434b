package tunnel

import (
	"bytes"
	"encoding/hex"
	"net/netip"
	"strings"
	"testing"

	"cronets/internal/flowtrace"
)

func sampleCtx() flowtrace.Context {
	var c flowtrace.Context
	for i := range c.Trace {
		c.Trace[i] = byte(0xA0 + i)
	}
	c.Span = 0x0102_0304_0506_0708
	c.Sampled = true
	return c
}

// TestFramerTraceContextRoundTrip: a traced frame carries its context to
// the reader; untraced frames decode with the zero context; the two kinds
// interleave freely on one stream.
func TestFramerTraceContextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	tc := sampleCtx()

	if err := f.WriteFrame([]byte("traced"), tc); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFrame([]byte("plain"), flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	unsampled := tc
	unsampled.Sampled = false
	if err := f.WriteFrame([]byte("unsampled"), unsampled); err != nil {
		t.Fatal(err)
	}

	body, got, err := f.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "traced" || got != tc {
		t.Fatalf("traced frame = %q ctx %+v, want %q ctx %+v", body, got, "traced", tc)
	}
	body, got, err = f.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "plain" || !got.IsZero() {
		t.Fatalf("plain frame = %q ctx %+v, want zero ctx", body, got)
	}
	// An unsampled context never goes on the wire.
	body, got, err = f.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "unsampled" || !got.IsZero() {
		t.Fatalf("unsampled frame = %q ctx %+v, want zero ctx", body, got)
	}
}

// TestFramerUntracedWireUnchanged: without a sampled context the wire
// bytes are identical to the pre-tracing format (4-byte length + body).
// A traced frame sets bit 31 of the length word and puts the 24-byte
// context between the word and the body.
func TestFramerUntracedWireUnchanged(t *testing.T) {
	tests := []struct {
		name string
		tc   flowtrace.Context
		want string
	}{
		{"untraced", flowtrace.Context{}, "00000003" + "616263"},
		{"traced", sampleCtx(), "80000003" +
			"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf" + "8102030405060708" + "616263"},
	}
	for _, tt := range tests {
		var buf bytes.Buffer
		if err := NewFramer(&buf).WriteFrame([]byte("abc"), tt.tc); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tt.want {
			t.Errorf("%s wire = %s, want %s", tt.name, got, tt.want)
		}
	}
}

// TestFramerZeroTraceIsNoContext: a flagged frame whose context has a
// zero trace ID reads back with the zero Context, not a half-filled one:
// a zero trace ID means "no context".
func TestFramerZeroTraceIsNoContext(t *testing.T) {
	wire, _ := hex.DecodeString("80000003" + strings.Repeat("00", 16) + "800000000000002a" + "616263")
	body, tc, err := NewFramer(bytes.NewBuffer(wire)).ReadFrame()
	if err != nil || string(body) != "abc" || tc != (flowtrace.Context{}) {
		t.Fatalf("ReadFrame = %q, %+v, %v; want \"abc\", the zero Context", body, tc, err)
	}
}

// TestEndpointWireGolden pins an encapsulated packet's frame body:
// protocol, then each address as 16 bytes (IPv4-mapped) and its port.
func TestEndpointWireGolden(t *testing.T) {
	var buf bytes.Buffer
	pkt := Packet{
		Proto:   ProtoTCP,
		Src:     netip.MustParseAddrPort("10.0.0.1:1234"),
		Dst:     netip.MustParseAddrPort("[2001:db8::2]:80"),
		Payload: []byte("hi"),
	}
	if err := NewEndpoint(&buf).Send(pkt, flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	want := "00000027" + "06" +
		"00000000000000000000ffff0a000001" + "04d2" +
		"20010db8000000000000000000000002" + "0050" + "6869"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("wire = %s, want %s", got, want)
	}
}

// TestEndpointSendRecvCtx: the context survives packet encapsulation
// through Endpoint.Send / Recv.
func TestEndpointSendRecvCtx(t *testing.T) {
	var buf bytes.Buffer
	a := NewEndpoint(&buf)
	tc := sampleCtx()
	pkt := Packet{
		Src:     netip.MustParseAddrPort("10.0.0.1:1234"),
		Dst:     netip.MustParseAddrPort("10.0.0.2:80"),
		Payload: []byte("hello"),
	}
	if err := a.Send(pkt, tc); err != nil {
		t.Fatal(err)
	}
	got, gotCtx, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if gotCtx != tc {
		t.Fatalf("ctx = %+v, want %+v", gotCtx, tc)
	}
	if got.Src != pkt.Src || got.Dst != pkt.Dst || !bytes.Equal(got.Payload, pkt.Payload) {
		t.Fatalf("packet = %+v, want %+v", got, pkt)
	}
}
