package tunnel

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Proto is the transport protocol of an encapsulated packet.
type Proto uint8

// Supported protocols.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// String returns the protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Packet is the simplified IP packet carried inside the tunnel: enough
// header to NAT (addresses and ports) plus an opaque payload.
type Packet struct {
	Proto   Proto
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte
}

// packetHeaderSize is the fixed marshaled header size: proto (1) +
// 2 x (16-byte address + 2-byte port).
const packetHeaderSize = 1 + 2*(16+2)

// MarshalInto encodes the packet into dst (which must hold at least
// packetHeaderSize + len(Payload) bytes) and returns the encoded length.
// It lets callers reuse a pooled buffer instead of allocating per packet.
func (p Packet) MarshalInto(dst []byte) (int, error) {
	if len(p.Payload) > MaxFrameSize-packetHeaderSize {
		return 0, ErrFrameTooLarge
	}
	n := packetHeaderSize + len(p.Payload)
	if len(dst) < n {
		return 0, fmt.Errorf("tunnel: marshal buffer too small: %d < %d", len(dst), n)
	}
	dst[0] = byte(p.Proto)
	src16 := p.Src.Addr().As16()
	dst16 := p.Dst.Addr().As16()
	copy(dst[1:17], src16[:])
	binary.BigEndian.PutUint16(dst[17:19], p.Src.Port())
	copy(dst[19:35], dst16[:])
	binary.BigEndian.PutUint16(dst[35:37], p.Dst.Port())
	copy(dst[packetHeaderSize:n], p.Payload)
	return n, nil
}

// UnmarshalPacket decodes a frame body into a packet. The payload aliases
// the input buffer.
func UnmarshalPacket(buf []byte) (Packet, error) {
	if len(buf) < packetHeaderSize {
		return Packet{}, fmt.Errorf("tunnel: packet too short: %d bytes", len(buf))
	}
	var src16, dst16 [16]byte
	copy(src16[:], buf[1:17])
	copy(dst16[:], buf[19:35])
	srcAddr := netip.AddrFrom16(src16).Unmap()
	dstAddr := netip.AddrFrom16(dst16).Unmap()
	return Packet{
		Proto:   Proto(buf[0]),
		Src:     netip.AddrPortFrom(srcAddr, binary.BigEndian.Uint16(buf[17:19])),
		Dst:     netip.AddrPortFrom(dstAddr, binary.BigEndian.Uint16(buf[35:37])),
		Payload: buf[packetHeaderSize:],
	}, nil
}
