package tunnel

import (
	"errors"
	"net/netip"
	"sync"
	"time"
)

// ErrPortsExhausted is returned when the NAT has no free ports.
var ErrPortsExhausted = errors.New("tunnel: NAT port range exhausted")

// natKey identifies an outbound flow before translation.
type natKey struct {
	proto Proto
	src   netip.AddrPort
	dst   netip.AddrPort
}

// natEntry is one live translation.
type natEntry struct {
	key      natKey
	mapped   uint16 // port on the NAT's external address
	lastSeen time.Time
}

// NAT implements the overlay node's IP-masquerade table: outbound packets
// get their source rewritten to the NAT's external address with an
// allocated port; inbound packets to an allocated port are rewritten back
// to the original internal source. Idle entries expire.
//
// The zero value is not usable; construct with NewNAT.
type NAT struct {
	external netip.Addr
	// loPort..hiPort is the masquerade port range: natLoPort..natHiPort,
	// narrowed by a test that exhausts it.
	loPort, hiPort uint16
	// now is the clock, injectable by tests.
	now func() time.Time

	mu      sync.Mutex
	byKey   map[natKey]*natEntry
	byPort  map[uint16]*natEntry
	nextTry uint16
}

const (
	// natLoPort and natHiPort bound the masquerade port range.
	natLoPort = 40000
	natHiPort = 60000
	// natIdle is the entry idle expiry.
	natIdle = 5 * time.Minute
)

// NewNAT creates a masquerade table translating to the given external
// address.
func NewNAT(external netip.Addr) *NAT {
	return &NAT{
		external: external,
		loPort:   natLoPort,
		hiPort:   natHiPort,
		now:      time.Now,
		byKey:    make(map[natKey]*natEntry),
		byPort:   make(map[uint16]*natEntry),
		nextTry:  natLoPort,
	}
}

// TranslateOutbound rewrites an outbound packet's source to the NAT's
// external address, allocating (or reusing) a port mapping.
func (n *NAT) TranslateOutbound(p Packet) (Packet, error) {
	key := natKey{proto: p.Proto, src: p.Src, dst: p.Dst}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	n.expireLocked(now)
	e, ok := n.byKey[key]
	if !ok {
		port, err := n.allocPortLocked()
		if err != nil {
			return Packet{}, err
		}
		e = &natEntry{key: key, mapped: port}
		n.byKey[key] = e
		n.byPort[port] = e
	}
	e.lastSeen = now
	out := p
	out.Src = netip.AddrPortFrom(n.external, e.mapped)
	return out, nil
}

// TranslateInbound rewrites an inbound packet addressed to a masqueraded
// port back to the original internal source, returning false if no mapping
// exists (the packet should be dropped, exactly as a Linux masquerade
// would).
func (n *NAT) TranslateInbound(p Packet) (Packet, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.expireLocked(n.now())
	e, ok := n.byPort[p.Dst.Port()]
	if !ok || e.key.proto != p.Proto || p.Dst.Addr() != n.external {
		return Packet{}, false
	}
	// Reverse direction must come from the flow's destination.
	if p.Src != e.key.dst {
		return Packet{}, false
	}
	e.lastSeen = n.now()
	out := p
	out.Dst = e.key.src
	return out, true
}

// Len returns the number of live translations.
func (n *NAT) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.expireLocked(n.now())
	return len(n.byKey)
}

// External returns the NAT's external address.
func (n *NAT) External() netip.Addr { return n.external }

func (n *NAT) allocPortLocked() (uint16, error) {
	span := int(n.hiPort) - int(n.loPort) + 1
	for i := 0; i < span; i++ {
		port := n.nextTry
		if n.nextTry == n.hiPort {
			n.nextTry = n.loPort
		} else {
			n.nextTry++
		}
		if _, used := n.byPort[port]; !used {
			return port, nil
		}
	}
	return 0, ErrPortsExhausted
}

func (n *NAT) expireLocked(now time.Time) {
	for port, e := range n.byPort {
		if now.Sub(e.lastSeen) > natIdle {
			delete(n.byPort, port)
			delete(n.byKey, e.key)
		}
	}
}
