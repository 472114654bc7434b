package tunnel

import (
	"fmt"
	"io"
	"net/netip"
	"sync"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Endpoint sends and receives encapsulated packets over a framed stream —
// one end of a GRE-like tunnel.
type Endpoint struct {
	f *Framer

	mu     sync.Mutex
	closed bool
	closer io.Closer
}

// NewEndpoint wraps a stream (typically a net.Conn) as a tunnel endpoint.
// If rw also implements io.Closer, Close will close it.
func NewEndpoint(rw io.ReadWriter) *Endpoint {
	e := &Endpoint{f: NewFramer(rw)}
	if c, ok := rw.(io.Closer); ok {
		e.closer = c
	}
	return e
}

// Send encapsulates and writes one packet. A sampled context rides in
// the frame header, so the far endpoint can parent its spans under the
// sending flow; an unsampled or zero context sends a plain frame. The
// marshal buffer comes from the data-plane pool, so a steady packet
// stream allocates nothing.
func (e *Endpoint) Send(p Packet, tc flowtrace.Context) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if len(p.Payload) > MaxFrameSize-packetHeaderSize {
		return ErrFrameTooLarge
	}
	buf := pipe.Get(packetHeaderSize + len(p.Payload))
	n, err := p.MarshalInto(buf)
	if err != nil {
		pipe.Put(buf)
		return err
	}
	err = e.f.WriteFrame(buf[:n], tc)
	pipe.Put(buf)
	return err
}

// Recv reads and decapsulates one packet, blocking until one arrives,
// plus the trace context carried in its frame header (the zero Context
// for untraced frames).
func (e *Endpoint) Recv() (Packet, flowtrace.Context, error) {
	buf, tc, err := e.f.ReadFrame()
	if err != nil {
		return Packet{}, flowtrace.Context{}, err
	}
	p, err := UnmarshalPacket(buf)
	return p, tc, err
}

// Close marks the endpoint closed and closes the underlying stream if it
// is closable.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.closer != nil {
		return e.closer.Close()
	}
	return nil
}

// PacketNetwork is the overlay node's "wild side": where decapsulated,
// NAT-rewritten packets are sent, and where return traffic arrives. A real
// deployment backs this with raw sockets; tests and examples use Switch.
type PacketNetwork interface {
	// SendPacket emits a packet toward its destination.
	SendPacket(Packet) error
	// RecvPacket blocks for the next packet addressed to this attachment.
	RecvPacket() (Packet, error)
}

// OverlayNode is the paper's overlay relay: packets arriving through the
// tunnel are decapsulated, source-NATed to the node's own address, and
// forwarded; return traffic hitting the NAT is re-encapsulated back into
// the tunnel. The far endpoint needs no tunnel configuration — the NAT
// makes the node transparent, exactly like the Linux IP-masquerade setup
// in Section II.
type OverlayNode struct {
	tunnel *Endpoint
	nat    *NAT
	net    PacketNetwork

	encap *obs.Counter // packets re-encapsulated into the tunnel
	decap *obs.Counter // packets decapsulated out of the tunnel
	scope *obs.Scope

	done sync.WaitGroup

	mu       sync.Mutex
	started  bool
	errOnce  sync.Once
	firstErr error
}

// NewOverlayNode builds a relay with the given external address.
func NewOverlayNode(tunnelSide io.ReadWriter, external netip.Addr, network PacketNetwork) *OverlayNode {
	return &OverlayNode{
		tunnel: NewEndpoint(tunnelSide),
		nat:    NewNAT(external),
		net:    network,
	}
}

// NAT exposes the node's masquerade table (for inspection and tests).
func (o *OverlayNode) NAT() *NAT { return o.nat }

// Instrument wires the node's frame counters and NAT table gauge into an
// obs registry. Call before Start; a nil registry is a no-op.
func (o *OverlayNode) Instrument(reg *obs.Registry) {
	o.encap = reg.Counter("cronets_tunnel_frames_encap_total",
		"Return packets re-encapsulated into the tunnel.")
	o.decap = reg.Counter("cronets_tunnel_frames_decap_total",
		"Packets decapsulated out of the tunnel toward the network.")
	reg.GaugeFunc("cronets_tunnel_nat_entries",
		"Live NAT masquerade translations.",
		func() int64 { return int64(o.nat.Len()) })
	o.scope = reg.Scope("tunnel")
}

// Start launches the two forwarding pumps. It may be called once.
func (o *OverlayNode) Start() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return fmt.Errorf("tunnel: overlay node already started")
	}
	o.started = true
	o.done.Add(2)
	go o.pumpOutbound()
	go o.pumpInbound()
	return nil
}

// pumpOutbound moves tunnel -> NAT -> network.
func (o *OverlayNode) pumpOutbound() {
	defer o.done.Done()
	for {
		p, _, err := o.tunnel.Recv()
		if err != nil {
			o.recordErr(err)
			return
		}
		o.decap.Inc()
		out, err := o.nat.TranslateOutbound(p)
		if err != nil {
			// Port exhaustion drops the packet, as a router would.
			o.scope.Logger().Debug("outbound packet dropped", "err", err)
			continue
		}
		if err := o.net.SendPacket(out); err != nil {
			o.recordErr(err)
			return
		}
	}
}

// pumpInbound moves network -> NAT -> tunnel, dropping packets with no
// mapping.
func (o *OverlayNode) pumpInbound() {
	defer o.done.Done()
	for {
		p, err := o.net.RecvPacket()
		if err != nil {
			o.recordErr(err)
			return
		}
		in, ok := o.nat.TranslateInbound(p)
		if !ok {
			continue
		}
		if err := o.tunnel.Send(in, flowtrace.Context{}); err != nil {
			o.recordErr(err)
			return
		}
		o.encap.Inc()
	}
}

func (o *OverlayNode) recordErr(err error) {
	o.errOnce.Do(func() { o.firstErr = err })
}

// Close shuts the node down and waits for the pumps to exit. It returns
// the first pump error, if any, once both pumps stopped.
func (o *OverlayNode) Close() error {
	_ = o.tunnel.Close()
	if c, ok := o.net.(io.Closer); ok {
		_ = c.Close()
	}
	o.done.Wait()
	return o.firstErr
}

// Switch is an in-memory PacketNetwork hub: attachments register under
// addresses and packets are delivered to the attachment owning the
// destination address. It stands in for "the Internet" around an overlay
// node in tests and examples.
type Switch struct {
	mu    sync.Mutex
	ports map[netip.Addr]*SwitchPort
}

// NewSwitch creates an empty switch.
func NewSwitch() *Switch {
	return &Switch{ports: make(map[netip.Addr]*SwitchPort)}
}

// Attach registers an address and returns its port. Attaching an address
// twice replaces the previous port (the old one stops receiving).
func (s *Switch) Attach(addr netip.Addr) *SwitchPort {
	p := &SwitchPort{sw: s, addr: addr, in: make(chan Packet, 64), closed: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ports[addr] = p
	return p
}

// deliver routes a packet to the port owning its destination address.
func (s *Switch) deliver(p Packet) error {
	s.mu.Lock()
	port, ok := s.ports[p.Dst.Addr()]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("tunnel: switch: no attachment for %s", p.Dst.Addr())
	}
	select {
	case port.in <- p:
		return nil
	default:
		// Queue full: drop, like a congested link.
		return nil
	}
}

// SwitchPort is one attachment to a Switch; it implements PacketNetwork.
type SwitchPort struct {
	sw   *Switch
	addr netip.Addr
	in   chan Packet

	closeOnce sync.Once
	closed    chan struct{}
}

var _ PacketNetwork = (*SwitchPort)(nil)

// Addr returns the attachment's address.
func (p *SwitchPort) Addr() netip.Addr { return p.addr }

// SendPacket routes the packet through the switch.
func (p *SwitchPort) SendPacket(pkt Packet) error { return p.sw.deliver(pkt) }

// RecvPacket blocks for the next packet addressed to this attachment.
func (p *SwitchPort) RecvPacket() (Packet, error) {
	select {
	case pkt := <-p.in:
		return pkt, nil
	case <-p.closed:
		return Packet{}, ErrClosed
	}
}

// Close stops RecvPacket.
func (p *SwitchPort) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}
