package relay

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
)

// ACL restricts which targets a CONNECT-mode relay will dial. A CRONets
// overlay node is otherwise an open proxy: anyone who can reach it could
// bounce traffic to arbitrary destinations, so production deployments pin
// the relay to the customer's own prefixes and service ports.
//
// The zero value permits everything; use NewACL to build a restrictive
// policy. An ACL does not change after NewACL, so Allow is safe for
// concurrent use.
type ACL struct {
	prefixes []netip.Prefix
	ports    map[uint16]bool
}

// NewACL builds an access-control list from CIDR prefixes and allowed
// ports. Empty prefixes means "any destination address"; empty ports means
// "any port" — but at least one restriction must be provided, otherwise
// use a nil *ACL (allow everything) explicitly.
func NewACL(cidrs []string, ports []uint16) (*ACL, error) {
	if len(cidrs) == 0 && len(ports) == 0 {
		return nil, fmt.Errorf("relay: ACL needs at least one rule; use a nil ACL to allow all")
	}
	a := &ACL{ports: make(map[uint16]bool, len(ports))}
	for _, c := range cidrs {
		p, err := netip.ParsePrefix(c)
		if err != nil {
			return nil, fmt.Errorf("relay: ACL prefix %q: %w", c, err)
		}
		a.prefixes = append(a.prefixes, p)
	}
	for _, p := range ports {
		a.ports[p] = true
	}
	return a, nil
}

// Allow reports whether the ACL permits dialing the target ("host:port").
// Hostnames (non-IP targets) are rejected by restrictive ACLs with
// prefix rules, since the relay cannot verify where they resolve.
func (a *ACL) Allow(target string) bool {
	if a == nil || len(a.prefixes) == 0 && len(a.ports) == 0 {
		return true
	}
	host, portStr, err := net.SplitHostPort(target)
	if err != nil {
		return false
	}
	if len(a.ports) > 0 {
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil || !a.ports[uint16(port)] {
			return false
		}
	}
	if len(a.prefixes) > 0 {
		addr, err := netip.ParseAddr(strings.Trim(host, "[]"))
		if err != nil {
			return false // hostnames cannot be verified against prefixes
		}
		ok := false
		for _, p := range a.prefixes {
			if p.Contains(addr.Unmap()) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
