package tunnel

import (
	"bytes"
	"net"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
)

func TestFramerRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	payloads := [][]byte{[]byte("hello"), {}, []byte("world"), bytes.Repeat([]byte{7}, 10000)}
	for _, p := range payloads {
		if err := f.WriteFrame(p, flowtrace.Context{}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, want := range payloads {
		got, _, err := f.ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %q, want %q", got, want)
		}
	}
}

func TestFramerRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	if err := f.WriteFrame(make([]byte, MaxFrameSize+1), flowtrace.Context{}); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// A corrupted length header must be rejected on read.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := f.ReadFrame(); err != ErrFrameTooLarge {
		t.Errorf("read err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFramerProperty: any payload within limits survives a roundtrip.
func TestFramerProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > MaxFrameSize {
			payload = payload[:MaxFrameSize]
		}
		var buf bytes.Buffer
		fr := NewFramer(&buf)
		if err := fr.WriteFrame(payload, flowtrace.Context{}); err != nil {
			return false
		}
		got, _, err := fr.ReadFrame()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func addrPort(s string) netip.AddrPort {
	return netip.MustParseAddrPort(s)
}

func TestPacketRoundtrip(t *testing.T) {
	p := Packet{
		Proto:   ProtoTCP,
		Src:     addrPort("10.1.2.3:4444"),
		Dst:     addrPort("192.0.2.7:443"),
		Payload: []byte("payload bytes"),
	}
	buf := make([]byte, packetHeaderSize+len(p.Payload))
	n, err := p.MarshalInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != p.Proto || got.Src != p.Src || got.Dst != p.Dst || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketRoundtripIPv6(t *testing.T) {
	p := Packet{
		Proto: ProtoUDP,
		Src:   addrPort("[2001:db8::1]:1000"),
		Dst:   addrPort("[2001:db8::2]:2000"),
	}
	buf := make([]byte, packetHeaderSize+len(p.Payload))
	n, err := p.MarshalInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst {
		t.Errorf("v6 roundtrip mismatch: %+v", got)
	}
}

func TestUnmarshalShortPacket(t *testing.T) {
	if _, err := UnmarshalPacket([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short packet")
	}
}

// TestPacketProperty: random addresses and payloads roundtrip.
func TestPacketProperty(t *testing.T) {
	f := func(a, b [4]byte, pa, pb uint16, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p := Packet{
			Proto:   ProtoTCP,
			Src:     netip.AddrPortFrom(netip.AddrFrom4(a), pa),
			Dst:     netip.AddrPortFrom(netip.AddrFrom4(b), pb),
			Payload: payload,
		}
		buf := make([]byte, packetHeaderSize+len(p.Payload))
		n, err := p.MarshalInto(buf)
		if err != nil {
			return false
		}
		got, err := UnmarshalPacket(buf[:n])
		return err == nil && got.Src == p.Src && got.Dst == p.Dst &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func natAddr() netip.Addr { return netip.MustParseAddr("198.51.100.1") }

func TestNATOutboundInbound(t *testing.T) {
	n := NewNAT(natAddr())
	orig := Packet{
		Proto: ProtoTCP,
		Src:   addrPort("10.0.0.5:3333"),
		Dst:   addrPort("192.0.2.9:80"),
	}
	out, err := n.TranslateOutbound(orig)
	if err != nil {
		t.Fatal(err)
	}
	if out.Src.Addr() != natAddr() {
		t.Errorf("outbound src = %v, want NAT external", out.Src)
	}
	if out.Dst != orig.Dst {
		t.Errorf("outbound dst changed: %v", out.Dst)
	}
	// Return traffic: from the flow's destination to the mapped port.
	reply := Packet{Proto: ProtoTCP, Src: orig.Dst, Dst: out.Src}
	in, ok := n.TranslateInbound(reply)
	if !ok {
		t.Fatal("inbound translation failed")
	}
	if in.Dst != orig.Src {
		t.Errorf("inbound dst = %v, want original src %v", in.Dst, orig.Src)
	}
}

func TestNATStableMapping(t *testing.T) {
	n := NewNAT(natAddr())
	p := Packet{Proto: ProtoTCP, Src: addrPort("10.0.0.5:3333"), Dst: addrPort("192.0.2.9:80")}
	a, err := n.TranslateOutbound(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.TranslateOutbound(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Src != b.Src {
		t.Errorf("same flow mapped to different ports: %v vs %v", a.Src, b.Src)
	}
	if n.Len() != 1 {
		t.Errorf("NAT has %d entries, want 1", n.Len())
	}
}

func TestNATDistinctFlowsDistinctPorts(t *testing.T) {
	n := NewNAT(natAddr())
	seen := make(map[uint16]bool)
	for port := uint16(1000); port < 1050; port++ {
		p := Packet{
			Proto: ProtoTCP,
			Src:   netip.AddrPortFrom(netip.MustParseAddr("10.0.0.5"), port),
			Dst:   addrPort("192.0.2.9:80"),
		}
		out, err := n.TranslateOutbound(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[out.Src.Port()] {
			t.Fatalf("port %d reused", out.Src.Port())
		}
		seen[out.Src.Port()] = true
	}
}

func TestNATRejectsStrangers(t *testing.T) {
	n := NewNAT(natAddr())
	p := Packet{Proto: ProtoTCP, Src: addrPort("10.0.0.5:3333"), Dst: addrPort("192.0.2.9:80")}
	out, err := n.TranslateOutbound(p)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong source: a third party probing the mapped port is dropped.
	stranger := Packet{Proto: ProtoTCP, Src: addrPort("203.0.113.99:80"), Dst: out.Src}
	if _, ok := n.TranslateInbound(stranger); ok {
		t.Error("NAT accepted a packet from the wrong remote")
	}
	// Wrong protocol.
	wrongProto := Packet{Proto: ProtoUDP, Src: p.Dst, Dst: out.Src}
	if _, ok := n.TranslateInbound(wrongProto); ok {
		t.Error("NAT accepted the wrong protocol")
	}
	// Unmapped port.
	unmapped := Packet{Proto: ProtoTCP, Src: p.Dst,
		Dst: netip.AddrPortFrom(natAddr(), 1)}
	if _, ok := n.TranslateInbound(unmapped); ok {
		t.Error("NAT accepted an unmapped port")
	}
}

func TestNATExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	n := NewNAT(natAddr())
	n.now = func() time.Time { return now }
	p := Packet{Proto: ProtoTCP, Src: addrPort("10.0.0.5:3333"), Dst: addrPort("192.0.2.9:80")}
	if _, err := n.TranslateOutbound(p); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 1 {
		t.Fatal("entry missing")
	}
	now = now.Add(natIdle)
	if n.Len() != 1 {
		t.Fatal("entry expired at exactly the idle timeout")
	}
	now = now.Add(time.Second)
	if n.Len() != 0 {
		t.Error("idle entry not expired")
	}
}

// TestNATPortExhaustion narrows the port range to three ports: walking
// the real 20,001 would take seconds.
func TestNATPortExhaustion(t *testing.T) {
	n := NewNAT(natAddr())
	n.loPort, n.hiPort, n.nextTry = 50000, 50002, 50000
	for i := 0; i < 3; i++ {
		p := Packet{
			Proto: ProtoTCP,
			Src:   netip.AddrPortFrom(netip.MustParseAddr("10.0.0.5"), uint16(1000+i)),
			Dst:   addrPort("192.0.2.9:80"),
		}
		if _, err := n.TranslateOutbound(p); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	p := Packet{Proto: ProtoTCP, Src: addrPort("10.0.0.5:2000"), Dst: addrPort("192.0.2.9:80")}
	if _, err := n.TranslateOutbound(p); err != ErrPortsExhausted {
		t.Errorf("err = %v, want ErrPortsExhausted", err)
	}
}

// TestNATBijective: distinct live flows never share a mapped port, and
// reversing any mapping recovers the original flow (property test).
func TestNATBijective(t *testing.T) {
	f := func(flows []struct {
		SrcPort uint16
		DstOct  byte
	}) bool {
		if len(flows) > 100 {
			flows = flows[:100]
		}
		n := NewNAT(natAddr())
		seen := make(map[uint16]natFlow)
		for _, fl := range flows {
			orig := Packet{
				Proto: ProtoTCP,
				Src:   netip.AddrPortFrom(netip.MustParseAddr("10.0.0.8"), fl.SrcPort),
				Dst:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, fl.DstOct}), 80),
			}
			out, err := n.TranslateOutbound(orig)
			if err != nil {
				return false
			}
			key := out.Src.Port()
			if prev, dup := seen[key]; dup && prev != (natFlow{orig.Src, orig.Dst}) {
				return false // port collision across flows
			}
			seen[key] = natFlow{orig.Src, orig.Dst}
			reply := Packet{Proto: ProtoTCP, Src: orig.Dst, Dst: out.Src}
			back, ok := n.TranslateInbound(reply)
			if !ok || back.Dst != orig.Src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

type natFlow struct {
	src, dst netip.AddrPort
}

// TestOverlayNodeEndToEnd: a packet tunneled to the overlay node reaches
// the destination NATed, and the reply returns through the tunnel — the
// paper's Section II forwarding setup.
func TestOverlayNodeEndToEnd(t *testing.T) {
	overlayAddr := netip.MustParseAddr("198.51.100.1")
	serverAddr := netip.MustParseAddr("192.0.2.20")

	sw := NewSwitch()
	serverPort := sw.Attach(serverAddr)
	overlayPort := sw.Attach(overlayAddr)

	userSide, nodeSide := net.Pipe()
	node := NewOverlayNode(nodeSide, overlayAddr, overlayPort)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	user := NewEndpoint(userSide)
	defer user.Close()

	go func() {
		pkt, err := serverPort.RecvPacket()
		if err != nil {
			return
		}
		if pkt.Src.Addr() != overlayAddr {
			t.Errorf("server saw source %v, want NAT address", pkt.Src)
		}
		_ = serverPort.SendPacket(Packet{
			Proto: pkt.Proto, Src: pkt.Dst, Dst: pkt.Src,
			Payload: []byte("pong"),
		})
	}()

	req := Packet{
		Proto:   ProtoTCP,
		Src:     netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 5555),
		Dst:     netip.AddrPortFrom(serverAddr, 80),
		Payload: []byte("ping"),
	}
	if err := user.Send(req, flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan Packet, 1)
	go func() {
		p, _, err := user.Recv()
		if err == nil {
			done <- p
		}
	}()
	select {
	case reply := <-done:
		if string(reply.Payload) != "pong" {
			t.Errorf("payload = %q", reply.Payload)
		}
		if reply.Dst != req.Src {
			t.Errorf("reply dst = %v, want original src %v", reply.Dst, req.Src)
		}
		if reply.Src != req.Dst {
			t.Errorf("reply src = %v, want server %v", reply.Src, req.Dst)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply through the overlay node")
	}
	if node.NAT().Len() != 1 {
		t.Errorf("NAT entries = %d, want 1", node.NAT().Len())
	}
}

func TestOverlayNodeStartTwice(t *testing.T) {
	sw := NewSwitch()
	port := sw.Attach(netip.MustParseAddr("198.51.100.1"))
	_, nodeSide := net.Pipe()
	node := NewOverlayNode(nodeSide, netip.MustParseAddr("198.51.100.1"), port)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err == nil {
		t.Error("second Start should fail")
	}
	_ = node.Close()
	_ = node.Close() // a second Close is a no-op, not a panic
}

func TestSwitchUnknownDestination(t *testing.T) {
	sw := NewSwitch()
	port := sw.Attach(netip.MustParseAddr("192.0.2.1"))
	err := port.SendPacket(Packet{Dst: addrPort("203.0.113.7:1")})
	if err == nil {
		t.Error("expected error for unknown destination")
	}
}

func TestSwitchPortClose(t *testing.T) {
	sw := NewSwitch()
	port := sw.Attach(netip.MustParseAddr("192.0.2.1"))
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = port.Close()
	}()
	if _, err := port.RecvPacket(); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestOverlayNodeInstrumented: a ping-pong through an instrumented node
// shows up in the decap/encap counters and the NAT gauge.
func TestOverlayNodeInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	overlayAddr := netip.MustParseAddr("198.51.100.1")
	serverAddr := netip.MustParseAddr("192.0.2.20")

	sw := NewSwitch()
	serverPort := sw.Attach(serverAddr)
	overlayPort := sw.Attach(overlayAddr)

	userSide, nodeSide := net.Pipe()
	node := NewOverlayNode(nodeSide, overlayAddr, overlayPort)
	node.Instrument(reg)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	user := NewEndpoint(userSide)
	defer user.Close()

	go func() {
		pkt, err := serverPort.RecvPacket()
		if err != nil {
			return
		}
		_ = serverPort.SendPacket(Packet{
			Proto: pkt.Proto, Src: pkt.Dst, Dst: pkt.Src,
			Payload: []byte("pong"),
		})
	}()
	if err := user.Send(Packet{
		Proto:   ProtoTCP,
		Src:     netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 5555),
		Dst:     netip.AddrPortFrom(serverAddr, 80),
		Payload: []byte("ping"),
	}, flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := user.Recv(); err != nil {
		t.Fatal(err)
	}
	// The encap counter ticks after the tunnel write completes; give the
	// pump a moment to get there.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		!strings.Contains(exposition(t, reg), "cronets_tunnel_frames_encap_total 1") {
		time.Sleep(time.Millisecond)
	}

	text := &strings.Builder{}
	if err := reg.WriteMetrics(text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cronets_tunnel_frames_decap_total 1",
		"cronets_tunnel_frames_encap_total 1",
		"cronets_tunnel_nat_entries 1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, text.String())
		}
	}
}

// exposition renders a registry's metrics as text.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
