package topology

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"cronets/internal/geo"
	"cronets/internal/netsim"
)

// Config parameterizes topology generation: the seed, the endpoint
// counts, the data centers, and the few calibration values an experiment
// varies. The rest of the calibration is constant (see makeLink). The
// zero value is not usable; start from DefaultConfig.
type Config struct {
	// Seed drives all randomness; equal seeds produce equal topologies.
	Seed int64

	// ClientStubs and ServerStubs are the number of stub ASes hosting one
	// client (resp. server) each.
	ClientStubs int
	ServerStubs int

	// CloudDCCities names the catalog cities hosting cloud data centers.
	CloudDCCities []string
	// CloudNICMbps is the DC VM's virtual NIC capacity (paper: 100 Mbps).
	CloudNICMbps float64

	// CoreHotProb and RegionalHotProb are the probabilities that a core
	// (Tier-1) or regional (Tier-2) link is a hot bottleneck rather than
	// a cool link (see makeLink).
	CoreHotProb     float64
	RegionalHotProb float64
}

// DefaultConfig returns the configuration used by the paper-scale
// experiments. The link parameters are calibrated so that (a) core links are
// the dominant bottleneck, (b) direct transcontinental paths show the
// 10-250 ms RTT spread of the paper's Figure 9 bins, and (c) access links
// rarely bottleneck below the 100 Mbps NIC.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		ClientStubs: 110,
		ServerStubs: 10,
		CloudDCCities: []string{
			"WashingtonDC", "SanJose", "Dallas", "Amsterdam", "Tokyo",
		},
		CloudNICMbps:    100,
		CoreHotProb:     0.09,
		RegionalHotProb: 0.10,
	}
}

// Internet is a generated topology: the node/link graph plus the AS-level
// structure and host inventory needed for routing and experiments. Route
// lookups build each destination's route table on first use, so an
// Internet is not safe for concurrent use.
type Internet struct {
	Net *netsim.Network
	// ASes lists the ASes in ASN order: ASes[i] has ASN i+1.
	ASes []*AS
	// CloudASN is the cloud provider's ASN.
	CloudASN int
	// Clients and Servers are the endpoint hosts.
	Clients []Host
	Servers []Host
	// DCs maps a data-center city name to its VM host.
	DCs map[string]Host
	// DCOrder lists DC city names in creation order (deterministic).
	DCOrder []string

	cfg      Config
	peerings map[asPairKey][]peeringPoint
	// routes[dst-1] is the BGP route table toward AS dst, built on first
	// use (a nil slots means not yet built).
	routes []routeTable
	// dist is the build's catalog distance table. Generate makes it
	// first and drops it when the build is done.
	dist *distTable
}

// AS returns the AS with the given ASN.
func (in *Internet) AS(asn int) (*AS, error) {
	if asn < 1 || asn > len(in.ASes) {
		return nil, fmt.Errorf("topology: no AS %d", asn)
	}
	return in.ASes[asn-1], nil
}

// Generate builds an Internet from the configuration.
func Generate(cfg Config) (*Internet, error) {
	if len(cfg.CloudDCCities) == 0 {
		return nil, fmt.Errorf("topology: need at least one cloud DC city")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &Internet{
		Net:      netsim.New(),
		DCs:      make(map[string]Host),
		cfg:      cfg,
		peerings: make(map[asPairKey][]peeringPoint),
	}
	catalog := geo.Catalog()
	in.dist = newDistTable(catalog)
	majors := catalog[:20] // cities big enough to host core PoPs
	citiesOn := make(map[string][]geo.Location)
	for _, c := range catalog {
		citiesOn[c.Continent] = append(citiesOn[c.Continent], c)
	}

	// Tier-1 providers: global footprint — at least one PoP per continent
	// (so inter-AS peering stays local and the long-haul segments live
	// inside the provider's own backbone, as in real transit networks),
	// plus extra PoPs in major cities.
	continentsAll := []string{"NA", "EU", "AS", "SA", "OC"}
	for i := 0; i < numTier1; i++ {
		a := in.newAS(fmt.Sprintf("T1-%d", i), Tier1)
		seen := make(map[string]bool)
		for _, cont := range continentsAll {
			regional := citiesOn[cont]
			for _, city := range pickCities(rng, regional, 1+rng.Intn(2)) {
				if !seen[city.Name] {
					seen[city.Name] = true
					in.addRouter(a, city)
				}
			}
		}
		for _, city := range pickCities(rng, majors, 4+rng.Intn(3)) {
			if !seen[city.Name] {
				seen[city.Name] = true
				in.addRouter(a, city)
			}
		}
	}

	// Tier-2 providers: regional, 2-5 cities on one continent.
	continents := []string{"NA", "EU", "AS", "SA", "OC"}
	for i := 0; i < numTier2; i++ {
		cont := continents[i%len(continents)]
		regional := citiesOn[cont]
		if len(regional) == 0 {
			continue
		}
		a := in.newAS(fmt.Sprintf("T2-%d-%s", i, cont), Tier2)
		n := 4 + rng.Intn(4)
		for _, city := range pickCities(rng, regional, n) {
			in.addRouter(a, city)
		}
	}

	// Cloud provider AS with one router + one VM host per DC city.
	cloud := in.newAS("CloudProvider", TierCloud)
	in.CloudASN = cloud.ASN
	for _, cityName := range cfg.CloudDCCities {
		city, ok := geo.FindLocation(cityName)
		if !ok {
			return nil, fmt.Errorf("topology: unknown DC city %q", cityName)
		}
		router := in.addRouter(cloud, city)
		vm := in.Net.AddNode(netsim.Node{
			Name: "dc-" + cityName, Kind: netsim.KindCloudDC, ASN: cloud.ASN, Loc: city,
		})
		// The VM's virtual NIC: the paper's 100 Mbps cap lives here.
		if err := in.Net.AddLink(netsim.Link{
			A: vm, B: router,
			Delay:           200 * time.Microsecond,
			CapacityMbps:    cfg.CloudNICMbps,
			BaseLossRate:    cloudLoss,
			BaseUtilization: 0.02,
			MaxQueueDelay:   cloudQueueMax,
		}); err != nil {
			return nil, err
		}
		h := Host{Node: vm, Access: router, ASN: cloud.ASN, Loc: city,
			Role: RoleCloudDC, Name: "dc-" + cityName}
		in.DCs[cityName] = h
		in.DCOrder = append(in.DCOrder, cityName)
	}

	// Intra-AS backbones: full mesh among each AS's routers.
	for _, a := range in.ASes {
		if err := in.meshAS(rng, a); err != nil {
			return nil, err
		}
	}

	// Tier-1 clique: every pair of Tier-1 ASes peers.
	t1s := in.byTier(Tier1)
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			if err := in.connectASes(rng, t1s[i], t1s[j], relPeer, linkCore); err != nil {
				return nil, err
			}
		}
	}

	// Tier-2: customer of 2-3 Tier-1s (regional providers multi-home for
	// resilience, which is also what gives BGP equally-good routes to
	// tie-break hot-potato style); peer with same-continent Tier-2s.
	t2s := in.byTier(Tier2)
	for _, t2 := range t2s {
		nProv := 2 + rng.Intn(2)
		for _, t1 := range pickASes(rng, t1s, nProv) {
			if err := in.connectASes(rng, t2, t1, relCustomer, linkCore); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < len(t2s); i++ {
		for j := i + 1; j < len(t2s); j++ {
			if sameContinent(t2s[i], t2s[j]) && rng.Float64() < tier2PeerProb {
				if err := in.connectASes(rng, t2s[i], t2s[j], relPeer, linkRegional); err != nil {
					return nil, err
				}
			}
		}
	}

	// Cloud peering: with every Tier-1, and aggressively with Tier-2s that
	// share a continent with a DC.
	for _, t1 := range t1s {
		if err := in.connectASes(rng, cloud, t1, relPeer, linkCloudPeering); err != nil {
			return nil, err
		}
	}
	for _, t2 := range t2s {
		if in.cloudSharesContinent(t2) && rng.Float64() < cloudTier2PeerProb {
			if err := in.connectASes(rng, cloud, t2, relPeer, linkCloudPeering); err != nil {
				return nil, err
			}
		}
	}

	// Client and server stubs. Client cities follow the PlanetLab
	// distribution the paper measured from (Section II-A: 48 Europe, 45
	// America, 14 Asia, 3 Australia of ~110 nodes) — Europe- and
	// North-America-heavy with a thin tail elsewhere.
	clientContinents := []struct {
		cont   string
		weight float64
	}{
		{"EU", 0.42}, {"NA", 0.38}, {"AS", 0.12}, {"SA", 0.05}, {"OC", 0.03},
	}
	for i := 0; i < cfg.ClientStubs; i++ {
		r := rng.Float64()
		cont := clientContinents[len(clientContinents)-1].cont
		for _, cw := range clientContinents {
			if r < cw.weight {
				cont = cw.cont
				break
			}
			r -= cw.weight
		}
		regional := citiesOn[cont]
		city := regional[rng.Intn(len(regional))]
		h, err := in.addStubHost(rng, t2s, fmt.Sprintf("client-%s-%d", city.Name, i),
			city, RoleClient, clientAccessMbps)
		if err != nil {
			return nil, err
		}
		in.Clients = append(in.Clients, h)
	}
	serverCities := []string{
		"Toronto", "Portland", "Atlanta", "Munich", "Zurich",
		"Osaka", "Seoul", "Beijing", "NewYork", "Chicago",
	}
	for i := 0; i < cfg.ServerStubs; i++ {
		name := serverCities[i%len(serverCities)]
		city, ok := geo.FindLocation(name)
		if !ok {
			return nil, fmt.Errorf("topology: unknown server city %q", name)
		}
		h, err := in.addStubHost(rng, t2s, fmt.Sprintf("server-%s-%d", city.Name, i),
			city, RoleServer, serverAccessMbps)
		if err != nil {
			return nil, err
		}
		in.Servers = append(in.Servers, h)
	}
	in.dist = nil
	in.routes = make([]routeTable, len(in.ASes))
	return in, nil
}

// newAS numbers ASes 1, 2, ... in creation order, so AS asn is
// in.ASes[asn-1].
func (in *Internet) newAS(name string, tier Tier) *AS {
	a := &AS{ASN: len(in.ASes) + 1, Name: name, Tier: tier}
	in.ASes = append(in.ASes, a)
	return a
}

func (in *Internet) addRouter(a *AS, city geo.Location) netsim.NodeID {
	id := in.Net.AddNode(netsim.Node{
		Name: fmt.Sprintf("%s.%s", a.Name, city.Name),
		Kind: netsim.KindRouter, ASN: a.ASN, Loc: city,
	})
	a.Routers = append(a.Routers, id)
	a.Presence = append(a.Presence, city)
	a.presenceIdx = append(a.presenceIdx, in.dist.index(city))
	return id
}

// linkClass selects the parameter family for a generated link.
type linkClass int

const (
	linkCore linkClass = iota + 1
	linkRegional
	linkAccess
	linkStubUplink
	linkCloudPeering
	linkCloudBackbone
)

// The calibration that no experiment varies, read by Generate and
// makeLink. Config keeps the values an experiment changes.
const (
	// numTier1 is the number of Tier-1 (transit-free) providers.
	numTier1 = 8
	// numTier2 is the number of regional Tier-2 providers.
	numTier2 = 24

	// Core link parameters (Tier-1 backbone and Tier-1 peering). These
	// links are the congested middle of the Internet. Link quality is
	// bimodal: with probability Config.CoreHotProb a link is a "hot"
	// bottleneck (utilization uniform in 0.80-0.92, loss log-uniform in
	// [1e-4, coreLossMax]); otherwise it is cool (utilization uniform in
	// [coreUtilMin, coreUtilMax], loss log-uniform in [1e-6,
	// coreCoolLossMax]). The bimodality produces the paper's polarity:
	// most default paths are fine, a minority cross a bottleneck and are
	// hugely improvable.
	coreCapacityMbps = 40000
	coreUtilMin      = 0.25
	coreUtilMax      = 0.65
	coreLossMax      = 0.0004
	coreCoolLossMax  = 0.001
	coreQueueMax     = 110 * time.Millisecond

	// Regional (Tier-2) link parameters, with the same hot/cool split
	// (probability Config.RegionalHotProb): a hot link runs at
	// utilization uniform in 0.70-0.90 with loss log-uniform in [1e-4,
	// regionalLossMax]; a cool one at utilization uniform in
	// [regionalUtilMin, regionalUtilMax] with loss log-uniform in [1e-7,
	// regionalCoolLossMax].
	regionalCapacityMbps = 10000
	regionalUtilMin      = 0.10
	regionalUtilMax      = 0.45
	regionalLossMax      = 0.0004
	regionalCoolLossMax  = 0.00004
	regionalQueueMax     = 25 * time.Millisecond

	// Access link parameters (stub <-> Tier-2 and host <-> stub router).
	clientAccessMbps = 100
	serverAccessMbps = 15
	accessUtilMax    = 0.25
	accessLossMax    = 0.00005
	accessQueueMax   = 8 * time.Millisecond

	// Cloud parameters.
	cloudBackboneMbps    = 40000                // private DC-to-DC backbone
	cloudBackboneUtil    = 0.15                 // background load on the backbone
	cloudBackboneLossMax = 0.00005              // heavy-tail loss cap on backbone links
	cloudPeeringMbps     = 10000                // IXP peering link capacity
	cloudPeeringUtil     = 0.15                 // background load on peering links
	cloudLoss            = 0.000002             // loss rate on cloud peering/NIC links
	cloudQueueMax        = 8 * time.Millisecond // queueing cap on cloud-owned links

	// tier2PeerProb is the probability that two same-continent Tier-2
	// ASes peer directly at an IXP.
	tier2PeerProb = 0.30
	// stubSecondHomingProb is the probability a stub is multi-homed to a
	// second provider.
	stubSecondHomingProb = 0.50
	// cloudTier2PeerProb is the probability the cloud AS peers with a
	// Tier-2 AS sharing a continent with one of its DCs (aggressive IXP
	// peering is a core premise of the paper).
	cloudTier2PeerProb = 0.20
)

// makeLink draws link parameters from the class's calibrated ranges.
func (in *Internet) makeLink(rng *rand.Rand, a, b netsim.NodeID, class linkClass) netsim.Link {
	cfg := in.cfg
	na, nb := in.Net.MustNode(a), in.Net.MustNode(b)
	delay := geo.PropagationDelay(na.Loc, nb.Loc)
	l := netsim.Link{A: a, B: b, Delay: delay}
	switch class {
	case linkCore:
		l.CapacityMbps = coreCapacityMbps
		hot := rng.Float64() < cfg.CoreHotProb
		if hot {
			l.BaseUtilization = uniform(rng, 0.80, 0.92)
			l.BaseLossRate = logUniform(rng, 1e-4, coreLossMax)
		} else {
			l.BaseUtilization = uniform(rng, coreUtilMin, coreUtilMax)
			l.BaseLossRate = logUniform(rng, 1e-6, coreCoolLossMax)
		}
		l.MaxQueueDelay = coreQueueMax
		// Day-night load swing on ordinary links; chronic bottlenecks are
		// saturated around the clock, so their badness persists (the
		// stability behind Figure 6's longitudinal gains).
		amp := rng.Float64() * 0.03
		l.DiurnalPhase = rng.Float64()
		if !hot {
			l.DiurnalAmplitude = amp
		}
	case linkRegional:
		l.CapacityMbps = regionalCapacityMbps
		hot := rng.Float64() < cfg.RegionalHotProb
		if hot {
			l.BaseUtilization = uniform(rng, 0.70, 0.90)
			l.BaseLossRate = logUniform(rng, 1e-4, regionalLossMax)
		} else {
			l.BaseUtilization = uniform(rng, regionalUtilMin, regionalUtilMax)
			l.BaseLossRate = logUniform(rng, 1e-7, regionalCoolLossMax)
		}
		l.MaxQueueDelay = regionalQueueMax
		amp := rng.Float64() * 0.02
		l.DiurnalPhase = rng.Float64()
		if !hot {
			l.DiurnalAmplitude = amp
		}
	case linkAccess:
		l.CapacityMbps = clientAccessMbps
		l.BaseUtilization = rng.Float64() * accessUtilMax
		l.BaseLossRate = logUniform(rng, 1e-8, accessLossMax)
		l.MaxQueueDelay = accessQueueMax
	case linkStubUplink:
		// Stub-to-provider uplinks are provisioned cleanly: the paper's
		// premise (after Akella et al.) is that bottlenecks live in the
		// core, not on the first ISP hop.
		l.CapacityMbps = regionalCapacityMbps
		l.BaseUtilization = uniform(rng, 0.05, 0.35)
		l.BaseLossRate = logUniform(rng, 1e-7, accessLossMax)
		l.MaxQueueDelay = 10 * time.Millisecond
	case linkCloudPeering:
		l.CapacityMbps = cloudPeeringMbps
		l.BaseUtilization = rng.Float64() * cloudPeeringUtil
		l.BaseLossRate = cloudLoss
		l.MaxQueueDelay = cloudQueueMax
	case linkCloudBackbone:
		l.CapacityMbps = cloudBackboneMbps
		l.BaseUtilization = cloudBackboneUtil
		l.BaseLossRate = logUniform(rng, 1e-7, cloudBackboneLossMax)
		l.MaxQueueDelay = cloudQueueMax
	}
	return l
}

// meshAS builds an AS's internal backbone. All backbones are sparse —
// each router links to its nearest already-placed router (a spanning
// tree) plus one extra nearest neighbor for redundancy — so transit
// traffic hops through intermediate PoPs. For ISPs that traversal
// accumulates stretch, queueing and bottleneck exposure; the cloud
// provider's backbone takes the same waypoint hops (as Softlayer's ring
// topology did) but over clean, well-provisioned links, which is also why
// overlay paths show up longer in traceroutes than the default paths they
// beat (the paper's Section V-B hop-count observation).
func (in *Internet) meshAS(rng *rand.Rand, a *AS) error {
	class := linkRegional
	switch a.Tier {
	case Tier1:
		class = linkCore
	case TierCloud:
		class = linkCloudBackbone
	}
	addLink := func(i, j int) error {
		if _, exists := in.Net.Link(a.Routers[i], a.Routers[j]); exists {
			return nil
		}
		return in.Net.AddLink(in.makeLink(rng, a.Routers[i], a.Routers[j], class))
	}
	for i := 1; i < len(a.Routers); i++ {
		// Spanning link: nearest already-placed router.
		if j := in.nearestRouter(a, i, i); j >= 0 {
			if err := addLink(i, j); err != nil {
				return fmt.Errorf("topology: backbone %s: %w", a.Name, err)
			}
		}
	}
	for i := 0; i < len(a.Routers); i++ {
		// Redundancy link: nearest router overall.
		if j := in.nearestRouter(a, i, len(a.Routers)); j >= 0 {
			if err := addLink(i, j); err != nil {
				return fmt.Errorf("topology: backbone %s: %w", a.Name, err)
			}
		}
	}
	if a.Tier == Tier1 && len(a.Routers) > 3 {
		// Tier-1 backbones are dense: real transit providers run multiple
		// parallel long-haul crossings, so traversals entering at
		// different PoPs take genuinely different router sequences. Add a
		// random extra link per router; without these, every transit
		// through the AS funnels over one spanning path and overlay
		// paths lose their router-level diversity (Figure 8).
		for i := range a.Routers {
			j := rng.Intn(len(a.Routers))
			if j == i {
				continue
			}
			if err := addLink(i, j); err != nil {
				return fmt.Errorf("topology: backbone %s: %w", a.Name, err)
			}
		}
	}
	return nil
}

// nearestRouter returns the index of the router geographically closest to
// router i among indexes [0, limit) excluding i, or -1 if none.
func (in *Internet) nearestRouter(a *AS, i, limit int) int {
	best := -1
	bestDist := 0.0
	for j := 0; j < limit && j < len(a.Routers); j++ {
		if j == i {
			continue
		}
		d := in.dist.between(a, i, a, j)
		if best < 0 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// relKind is the business relationship direction for connectASes.
type relKind int

const (
	relCustomer relKind = iota + 1 // first AS is customer of second
	relPeer
)

// connectASes records the business relationship and creates 1-2 physical
// peering links at the geographically closest presence pairs.
func (in *Internet) connectASes(rng *rand.Rand, x, y *AS, rel relKind, class linkClass) error {
	var pairs []peeringPoint
	if x.Tier == TierCloud || y.Tier == TierCloud {
		// Aggressive IXP peering: the cloud provider peers near every one
		// of its data centers, so overlay traffic can enter and exit the
		// provider network close to the endpoints.
		cloud, other := x, y
		if y.Tier == TierCloud {
			cloud, other = y, x
		}
		pairs = in.perRouterPairs(cloud, other)
		if cloud != x {
			for i, p := range pairs {
				pairs[i] = peeringPoint{a: p.b, b: p.a}
			}
		}
	} else {
		pairs = in.sampledRouterPairs(rng, x, y, 2+rng.Intn(2))
	}
	if len(pairs) == 0 {
		return fmt.Errorf("topology: no router pair between %s and %s", x.Name, y.Name)
	}
	// Record the business relationship only once a physical interconnect
	// exists; BGP must never select an adjacency with no link.
	switch rel {
	case relCustomer:
		x.Providers = append(x.Providers, y.ASN)
		y.Customers = append(y.Customers, x.ASN)
	case relPeer:
		x.Peers = append(x.Peers, y.ASN)
		y.Peers = append(y.Peers, x.ASN)
	}
	key := asPair(x.ASN, y.ASN)
	for _, p := range pairs {
		if err := in.Net.AddLink(in.makeLink(rng, p.a, p.b, class)); err != nil {
			return fmt.Errorf("topology: peer %s-%s: %w", x.Name, y.Name, err)
		}
		pp := peeringPoint{a: p.a, b: p.b}
		if x.ASN > y.ASN {
			pp = peeringPoint{a: p.b, b: p.a}
		}
		in.peerings[key] = append(in.peerings[key], pp)
	}
	return nil
}

// addStubHost creates a single-router stub AS in the city, homes it to the
// nearest of the Tier-2 providers t2s, and attaches a host via an access
// link.
func (in *Internet) addStubHost(rng *rand.Rand, t2s []*AS, name string, city geo.Location,
	role HostRole, accessMbps float64) (Host, error) {

	stub := in.newAS("stub-"+name, TierStub)
	router := in.addRouter(stub, city)

	// Home to the 1-2 nearest Tier-2 providers (same continent preferred).
	providers := in.nearestTier2(t2s, city, 3)
	if len(providers) == 0 {
		return Host{}, fmt.Errorf("topology: no tier-2 provider for %s", name)
	}
	if err := in.connectASes(rng, stub, providers[0], relCustomer, linkStubUplink); err != nil {
		return Host{}, err
	}
	if len(providers) > 1 && rng.Float64() < stubSecondHomingProb {
		if err := in.connectASes(rng, stub, providers[1], relCustomer, linkStubUplink); err != nil {
			return Host{}, err
		}
	}

	host := in.Net.AddNode(netsim.Node{
		Name: name, Kind: netsim.KindHost, ASN: stub.ASN, Loc: city,
	})
	access := in.makeLink(rng, host, router, linkAccess)
	access.CapacityMbps = accessMbps
	if err := in.Net.AddLink(access); err != nil {
		return Host{}, err
	}
	return Host{Node: host, Access: router, ASN: stub.ASN, Loc: city, Role: role, Name: name}, nil
}

// nearestTier2 returns up to n of the Tier-2 ASes t2s ordered by distance
// of their closest presence to the city.
func (in *Internet) nearestTier2(t2s []*AS, city geo.Location, n int) []*AS {
	type cand struct {
		as   *AS
		dist float64
	}
	// near holds the n nearest so far in (distance, ASN) order. That
	// order is total, so keeping the head as candidates arrive gives what
	// sorting every candidate and cutting at n would.
	near := make([]cand, 0, n+1)
	ci := in.dist.index(city)
	for _, a := range t2s {
		best := -1.0
		for _, pi := range a.presenceIdx {
			d := in.dist.distance(ci, pi)
			if best < 0 || d < best {
				best = d
			}
		}
		if best < 0 {
			continue
		}
		i := len(near)
		for i > 0 && (best < near[i-1].dist || best == near[i-1].dist && a.ASN < near[i-1].as.ASN) {
			i--
		}
		if i < n {
			near = slices.Insert(near, i, cand{a, best})
			near = near[:min(len(near), n)]
		}
	}
	out := make([]*AS, len(near))
	for i, c := range near {
		out[i] = c.as
	}
	return out
}

func (in *Internet) byTier(t Tier) []*AS {
	var out []*AS
	for _, a := range in.ASes {
		if a.Tier == t {
			out = append(out, a)
		}
	}
	return out
}

func (in *Internet) cloudSharesContinent(a *AS) bool {
	cloud := in.ASes[in.CloudASN-1]
	for _, cp := range cloud.Presence {
		for _, p := range a.Presence {
			if cp.Continent == p.Continent {
				return true
			}
		}
	}
	return false
}

// perRouterPairs returns one peering point per cloud router: the nearest
// router of the other AS, with duplicates removed. Points are oriented with
// .a on the cloud side.
func (in *Internet) perRouterPairs(cloud, other *AS) []peeringPoint {
	out := make([]peeringPoint, 0, len(cloud.Routers))
	for i, cr := range cloud.Routers {
		best := -1
		bestDist := 0.0
		for j := range other.Routers {
			d := in.dist.between(cloud, i, other, j)
			if best < 0 || d < bestDist {
				best, bestDist = j, d
			}
		}
		if best < 0 {
			continue
		}
		if p := (peeringPoint{a: cr, b: other.Routers[best]}); !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// sampledRouterPairs picks n peering points among the 2n+2 geographically
// closest router pairs: real IXP interconnects cluster near the shortest
// geographic pairings but are not exactly the minimum, and the spread is
// what lets paths entering an AS at different points take different
// internal routes.
func (in *Internet) sampledRouterPairs(rng *rand.Rand, x, y *AS, n int) []peeringPoint {
	cands := in.closestRouterPairs(x, y, 2*n+2)
	if len(cands) <= n {
		return cands
	}
	idx := rng.Perm(len(cands))[:n]
	sort.Ints(idx)
	out := make([]peeringPoint, 0, n)
	for _, i := range idx {
		out = append(out, cands[i])
	}
	return out
}

// maxPeeringKm bounds how far apart two routers can be and still
// interconnect directly: peering happens at shared IXPs/metros, so the
// long-haul distance lives inside AS backbones, never on a peering link.
// Without this cap, hot-potato early exit would jump continents over a
// single "peering" hop.
const maxPeeringKm = 800

// peeringCand is a candidate interconnect and its geographic length.
type peeringCand struct {
	p    peeringPoint
	dist float64
}

// comparePeeringCands orders candidates by distance, then by router IDs.
// Router pairs are distinct, so the order is total and any sort of the
// same set gives the same slice.
func comparePeeringCands(x, y peeringCand) int {
	if c := cmp.Compare(x.dist, y.dist); c != 0 {
		return c
	}
	if c := cmp.Compare(x.p.a, y.p.a); c != 0 {
		return c
	}
	return cmp.Compare(x.p.b, y.p.b)
}

// closestRouterPairs returns up to n router pairs between the two ASes,
// ordered by geographic distance (the natural IXP locations), keeping only
// co-located pairs when any exist. Points are oriented with .a on x's side.
func (in *Internet) closestRouterPairs(x, y *AS, n int) []peeringPoint {
	// Keep co-located pairs only; if the ASes share no metro, allow the
	// single closest pair (a rural long-haul interconnect). Filtering
	// before the sort leaves the same pairs in the same order as sorting
	// every pair and cutting at maxPeeringKm, without ordering the
	// long-haul pairs that the cut would drop.
	var local []peeringCand
	closest := peeringCand{dist: math.Inf(1)}
	for i, rx := range x.Routers {
		for j, ry := range y.Routers {
			c := peeringCand{peeringPoint{a: rx, b: ry}, in.dist.between(x, i, y, j)}
			if c.dist <= maxPeeringKm {
				local = append(local, c)
			} else if comparePeeringCands(c, closest) < 0 {
				closest = c
			}
		}
	}
	if len(local) == 0 && !math.IsInf(closest.dist, 1) {
		local = append(local, closest)
	}
	slices.SortFunc(local, comparePeeringCands)
	// Spread the interconnects across distinct metros where possible:
	// peering at two routers of the same IXP adds no path diversity.
	out := make([]peeringPoint, 0, n)
	for _, c := range local {
		if len(out) >= n {
			break
		}
		if slices.ContainsFunc(out, func(o peeringPoint) bool { return o.a == c.p.a }) {
			continue
		}
		out = append(out, c.p)
	}
	for _, c := range local {
		if len(out) >= n {
			break
		}
		if !slices.Contains(out, c.p) {
			out = append(out, c.p)
		}
	}
	return out
}

func pickCities(rng *rand.Rand, from []geo.Location, n int) []geo.Location {
	idx := rng.Perm(len(from))
	if n > len(from) {
		n = len(from)
	}
	out := make([]geo.Location, 0, n)
	for _, i := range idx[:n] {
		out = append(out, from[i])
	}
	return out
}

func pickASes(rng *rand.Rand, from []*AS, n int) []*AS {
	idx := rng.Perm(len(from))
	if n > len(from) {
		n = len(from)
	}
	out := make([]*AS, 0, n)
	for _, i := range idx[:n] {
		out = append(out, from[i])
	}
	return out
}

// sameContinent reports whether the two ASes have presence on a shared
// continent.
func sameContinent(a, b *AS) bool {
	for _, pa := range a.Presence {
		for _, pb := range b.Presence {
			if pa.Continent == pb.Continent {
				return true
			}
		}
	}
	return false
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}

// logUniform draws a value log-uniformly in [lo, hi], the heavy-tailed
// distribution observed for per-link loss rates: most links are nearly
// lossless, a few are bad.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}
