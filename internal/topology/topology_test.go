package topology

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"cronets/internal/netsim"
)

// smallConfig keeps topology tests fast.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.ClientStubs = 10
	cfg.ServerStubs = 4
	return cfg
}

func generate(t *testing.T, seed int64) *Internet {
	t.Helper()
	in, err := Generate(smallConfig(seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return in
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CloudDCCities = nil
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for no DC cities")
	}
	cfg = DefaultConfig(1)
	cfg.CloudDCCities = []string{"Gotham"}
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for unknown DC city")
	}
}

func TestGenerateInventory(t *testing.T) {
	in := generate(t, 42)
	if len(in.Clients) != 10 || len(in.Servers) != 4 {
		t.Errorf("hosts: %d clients, %d servers", len(in.Clients), len(in.Servers))
	}
	if len(in.DCs) != 5 || len(in.DCOrder) != 5 {
		t.Errorf("DCs: %d (%v)", len(in.DCs), in.DCOrder)
	}
	cloud, err := in.AS(in.CloudASN)
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Tier != TierCloud {
		t.Errorf("cloud AS tier = %v", cloud.Tier)
	}
	if len(cloud.Routers) != 5 {
		t.Errorf("cloud routers = %d", len(cloud.Routers))
	}
	for _, h := range in.Clients {
		if h.Role != RoleClient {
			t.Errorf("client %s has role %v", h.Name, h.Role)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, 7)
	b := generate(t, 7)
	if a.Net.NumNodes() != b.Net.NumNodes() || a.Net.NumLinks() != b.Net.NumLinks() {
		t.Fatalf("same seed, different graphs: %d/%d nodes, %d/%d links",
			a.Net.NumNodes(), b.Net.NumNodes(), a.Net.NumLinks(), b.Net.NumLinks())
	}
	pa, err := a.RouterPath(a.Servers[0], a.Clients[0])
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.RouterPath(b.Servers[0], b.Clients[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Nodes) != len(pb.Nodes) {
		t.Fatalf("same seed, different paths: %v vs %v", pa.Nodes, pb.Nodes)
	}
	for i := range pa.Nodes {
		if pa.Nodes[i] != pb.Nodes[i] {
			t.Fatalf("same seed, different paths at hop %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := generate(t, 1)
	b := generate(t, 2)
	// Link parameters should differ even if counts happen to match.
	// Links() walks a map, so sort both lists to pair link i with link i.
	la := sortedLinks(a.Net)
	lb := sortedLinks(b.Net)
	if len(la) == len(lb) {
		same := true
		for i := range la {
			if la[i].BaseUtilization != lb[i].BaseUtilization {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical link parameters")
		}
	}
}

// sortedLinks returns the network's links ordered by (A, B).
func sortedLinks(n *netsim.Network) []*netsim.Link {
	links := n.Links()
	slices.SortFunc(links, func(x, y *netsim.Link) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return links
}

// TestAllPairsRouted: every (server, client) and (DC, client) pair must
// have a valid default route whose consecutive nodes are linked.
func TestAllPairsRouted(t *testing.T) {
	in := generate(t, 42)
	check := func(from, to Host) {
		t.Helper()
		p, err := in.RouterPath(from, to)
		if err != nil {
			t.Fatalf("route %s -> %s: %v", from.Name, to.Name, err)
		}
		if len(p.Nodes) < 3 {
			t.Fatalf("route %s -> %s too short: %v", from.Name, to.Name, p.Nodes)
		}
		if p.Nodes[0] != from.Node || p.Nodes[len(p.Nodes)-1] != to.Node {
			t.Fatalf("route endpoints wrong: %v", p.Nodes)
		}
		for i := 1; i < len(p.Nodes); i++ {
			if _, ok := in.Net.Link(p.Nodes[i-1], p.Nodes[i]); !ok {
				t.Fatalf("route %s -> %s has no link %d-%d",
					from.Name, to.Name, p.Nodes[i-1], p.Nodes[i])
			}
		}
		if _, err := in.Net.PathMetrics(p, 0); err != nil {
			t.Fatalf("metrics for %s -> %s: %v", from.Name, to.Name, err)
		}
	}
	for _, s := range in.Servers {
		for _, c := range in.Clients {
			check(s, c)
		}
	}
	for _, dc := range in.DCOrder {
		for _, c := range in.Clients {
			check(in.DCs[dc], c)
			check(c, in.DCs[dc])
		}
	}
}

// TestValleyFree: every default AS path respects Gao-Rexford export rules.
func TestValleyFree(t *testing.T) {
	in := generate(t, 42)
	for _, s := range in.Servers {
		for _, c := range in.Clients {
			asPath, err := in.ASPath(s.ASN, c.ASN)
			if err != nil {
				t.Fatalf("AS path %s -> %s: %v", s.Name, c.Name, err)
			}
			if !in.IsValleyFree(asPath) {
				t.Errorf("AS path %s -> %s not valley-free: %v", s.Name, c.Name, asPath)
			}
		}
	}
}

func TestASPathSelf(t *testing.T) {
	in := generate(t, 42)
	p, err := in.ASPath(in.CloudASN, in.CloudASN)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0] != in.CloudASN {
		t.Errorf("self AS path = %v", p)
	}
}

func TestOverlayRoute(t *testing.T) {
	in := generate(t, 42)
	src, dst := in.Servers[0], in.Clients[0]
	route, err := in.OverlayRoute(src, dst, in.DCOrder[0])
	if err != nil {
		t.Fatal(err)
	}
	if route.ToDC.Nodes[0] != src.Node {
		t.Error("ToDC does not start at source")
	}
	if route.FromDC.Nodes[len(route.FromDC.Nodes)-1] != dst.Node {
		t.Error("FromDC does not end at destination")
	}
	dcNode := in.DCs[in.DCOrder[0]].Node
	if route.ToDC.Nodes[len(route.ToDC.Nodes)-1] != dcNode || route.FromDC.Nodes[0] != dcNode {
		t.Error("segments do not meet at the DC")
	}
	full, err := route.FullPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nodes) != len(route.ToDC.Nodes)+len(route.FromDC.Nodes)-1 {
		t.Errorf("full path length %d", len(full.Nodes))
	}
	if _, err := in.OverlayRoute(src, dst, "Gotham"); err == nil {
		t.Error("expected error for unknown DC")
	}
}

func TestTracerouteExcludesHosts(t *testing.T) {
	in := generate(t, 42)
	p, err := in.RouterPath(in.Servers[0], in.Clients[0])
	if err != nil {
		t.Fatal(err)
	}
	tr := in.Traceroute(p)
	if len(tr) != len(p.Nodes)-2 {
		t.Errorf("traceroute length %d, path %d (both endpoints are hosts)", len(tr), len(p.Nodes))
	}
	for _, id := range tr {
		if in.Net.MustNode(id).Kind != netsim.KindRouter {
			t.Errorf("non-router %v in traceroute", id)
		}
	}
}

// TestOverlayDiffersFromDirect: overlay routes should not all be identical
// to the direct route — the premise of the whole paper.
func TestOverlayDiffersFromDirect(t *testing.T) {
	in := generate(t, 42)
	src, dst := in.Servers[0], in.Clients[0]
	direct, err := in.RouterPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for _, dc := range in.DCOrder {
		route, err := in.OverlayRoute(src, dst, dc)
		if err != nil {
			t.Fatal(err)
		}
		full, err := route.FullPath()
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Nodes) != len(direct.Nodes) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("every overlay route matches the direct route length; no diversity")
	}
}

func TestStubsAreAttachedToTier2(t *testing.T) {
	in := generate(t, 42)
	for _, c := range in.Clients {
		stub, err := in.AS(c.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if stub.Tier != TierStub {
			t.Errorf("client %s in non-stub AS", c.Name)
		}
		if len(stub.Providers) == 0 {
			t.Errorf("stub %s has no provider", stub.Name)
		}
		for _, p := range stub.Providers {
			prov, err := in.AS(p)
			if err != nil {
				t.Fatal(err)
			}
			if prov.Tier != Tier2 {
				t.Errorf("stub %s homed to %v AS", stub.Name, prov.Tier)
			}
		}
	}
}

func TestCloudBackboneConnectedAndClean(t *testing.T) {
	in := generate(t, 42)
	cloud, err := in.AS(in.CloudASN)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := in.intraASDijkstra(in.CloudASN, cloud.Routers[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cloud.Routers {
		if d := dist[i]; d > 1 { // seconds; any finite backbone path is far below this
			t.Errorf("DC router %d unreachable over the backbone", r)
		}
	}
	// Backbone links are well provisioned: low loss, low utilization.
	for i, a := range cloud.Routers {
		for j := i + 1; j < len(cloud.Routers); j++ {
			l, ok := in.Net.Link(a, cloud.Routers[j])
			if !ok {
				continue
			}
			if l.BaseLossRate > 1e-4 {
				t.Errorf("backbone link loss = %v", l.BaseLossRate)
			}
			if l.UtilizationAt(0) > 0.3 {
				t.Errorf("backbone link utilization = %v", l.UtilizationAt(0))
			}
		}
	}
}

func TestLinkParameterRanges(t *testing.T) {
	in := generate(t, 42)
	for _, l := range in.Net.Links() {
		if l.CapacityMbps <= 0 {
			t.Fatalf("link %d-%d has capacity %v", l.A, l.B, l.CapacityMbps)
		}
		if l.BaseLossRate < 0 || l.BaseLossRate > 0.05 {
			t.Fatalf("link %d-%d has loss %v", l.A, l.B, l.BaseLossRate)
		}
		if u := l.UtilizationAt(0); u < 0 || u > 0.98 {
			t.Fatalf("link %d-%d has utilization %v", l.A, l.B, u)
		}
		if l.Delay < 0 || l.Delay > 200*time.Millisecond {
			t.Fatalf("link %d-%d has delay %v", l.A, l.B, l.Delay)
		}
	}
}

func TestRouterPathToSelfFails(t *testing.T) {
	in := generate(t, 42)
	if _, err := in.RouterPath(in.Clients[0], in.Clients[0]); err == nil {
		t.Error("expected error for self route")
	}
}

func TestIntraASConnected(t *testing.T) {
	in := generate(t, 42)
	for _, a := range in.ASes {
		if len(a.Routers) < 2 {
			continue
		}
		dist, _, err := in.intraASDijkstra(a.ASN, a.Routers[0])
		if err != nil {
			t.Fatalf("dijkstra in %s: %v", a.Name, err)
		}
		for i, r := range a.Routers {
			if d := dist[i]; d < 0 || d > 1e9 {
				t.Fatalf("router %d unreachable inside %s", r, a.Name)
			}
		}
	}
}

// TestRouterPathAccessOutsideAS: a host whose access router belongs to
// another AS cannot be reached over its own AS's backbone; the intra-AS
// walk reports that router unreachable.
func TestRouterPathAccessOutsideAS(t *testing.T) {
	in := generate(t, 42)
	src, dst := in.Servers[0], in.Clients[0]
	stubRouter := dst.Access // the stub AS's only router, where the path enters
	dst.Access = in.Clients[1].Access
	_, err := in.RouterPath(src, dst)
	want := fmt.Sprintf("topology: inside AS%d: topology: node %d unreachable from %d",
		dst.ASN, dst.Access, stubRouter)
	if err == nil || err.Error() != want {
		t.Errorf("RouterPath error = %v, want %q", err, want)
	}
}

func TestIsValleyFreeRejectsValleys(t *testing.T) {
	in := generate(t, 42)
	// Build a deliberate valley: provider -> customer -> provider.
	var stub *AS
	for _, a := range in.ASes {
		if a.Tier == TierStub && len(a.Providers) >= 2 {
			stub = a
			break
		}
	}
	if stub == nil {
		t.Skip("no multi-homed stub in this topology")
	}
	valley := []int{stub.Providers[0], stub.ASN, stub.Providers[1]}
	if in.IsValleyFree(valley) {
		t.Errorf("path %v descends into a stub and climbs out; should not be valley-free", valley)
	}
}
