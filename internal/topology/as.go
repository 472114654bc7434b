// Package topology generates Internet-like topologies for the CRONets
// reproduction and computes the default (BGP-style) and overlay routes over
// them.
//
// The generated Internet has the tiered structure the paper's analysis
// relies on: a small clique of Tier-1 transit providers whose backbone and
// peering links carry heavy background load (per Akella et al. 2003 and
// Kang & Gligor 2014, most wide-area bottlenecks are in or near the core),
// regional Tier-2 providers, stub ASes hosting clients and servers, and a
// cloud provider AS whose data centers are interconnected by a
// well-provisioned private backbone and aggressively peered at IXPs.
//
// Default paths follow Gao-Rexford (valley-free) route selection with
// hot-potato egress choice at the router level; overlay paths are the
// concatenation of the default paths to and from a cloud data center.
package topology

import (
	"fmt"

	"cronets/internal/geo"
	"cronets/internal/netsim"
)

// Tier classifies autonomous systems.
type Tier int

// AS tiers.
const (
	Tier1     Tier = iota + 1 // transit-free core provider
	Tier2                     // regional provider
	TierStub                  // edge network hosting endpoints
	TierCloud                 // the cloud provider
)

// String returns a short name for the tier.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case TierStub:
		return "stub"
	case TierCloud:
		return "cloud"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// AS is an autonomous system: a set of routers under one administrative
// domain, with business relationships to other ASes.
type AS struct {
	ASN  int
	Name string
	Tier Tier

	// Routers are the AS's router node IDs, one per presence city.
	Routers []netsim.NodeID
	// Presence lists the cities the AS has routers in, parallel to Routers.
	Presence []geo.Location
	// presenceIdx holds each Presence city's index in the generator's
	// distance table, parallel to Presence.
	presenceIdx []int

	// Providers, Customers and Peers hold the ASNs of business neighbors.
	Providers []int
	Customers []int
	Peers     []int
}

// Host is an endpoint attached to a stub AS: a PlanetLab-like client, a
// web server, or a cloud data-center VM.
type Host struct {
	// Node is the host's node ID in the network.
	Node netsim.NodeID
	// Access is the stub router the host attaches to.
	Access netsim.NodeID
	// ASN is the AS the host lives in.
	ASN int
	// Loc is the host's city.
	Loc geo.Location
	// Role distinguishes clients, servers and cloud DCs.
	Role HostRole
	// Name is a human-readable identifier ("client-paris-3", "dc-tokyo").
	Name string
}

// HostRole classifies hosts.
type HostRole int

// Host roles.
const (
	RoleClient HostRole = iota + 1
	RoleServer
	RoleCloudDC
)

// String returns a short name for the role.
func (r HostRole) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleServer:
		return "server"
	case RoleCloudDC:
		return "cloud-dc"
	default:
		return fmt.Sprintf("HostRole(%d)", int(r))
	}
}

// peeringPoint records the concrete router pair implementing an AS
// adjacency. The routing expansion picks among these with hot-potato logic.
type peeringPoint struct {
	// a belongs to the AS with the smaller ASN of the pair; b to the other.
	a, b netsim.NodeID
}

// asPairKey canonicalizes an unordered ASN pair.
type asPairKey struct{ lo, hi int }

func asPair(x, y int) asPairKey {
	if x > y {
		x, y = y, x
	}
	return asPairKey{x, y}
}
