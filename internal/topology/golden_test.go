package topology

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// TestGenerateGolden pins Generate's output bit for bit: every node,
// every link's endpoints, parameters and events, every AS's routers,
// presence and business neighbours, every peering point, and every host.
// Optimisations of the generator must keep these digests; only a
// deliberate model change may re-record them.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"DefaultConfig(42)", DefaultConfig(42), "f79ba31338155419"},
		{"DefaultConfig(7)", DefaultConfig(7), "327f1d80a3d6ee97"},
		{"smallConfig(7)", smallConfig(7), "7757399b5961c2c7"},
	} {
		in, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := internetDigest(in); got != tc.want {
			t.Errorf("%s: topology digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// internetDigest hashes every generated bit of in, in a fixed order.
func internetDigest(in *Internet) string {
	d := digester{h: fnv.New64a()}
	for _, n := range in.Net.Nodes() {
		d.i64(int64(n.ID))
		d.str(n.Name)
		d.i64(int64(n.Kind))
		d.i64(int64(n.ASN))
		d.str(n.Loc.Name)
	}

	links := in.Net.Links()
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	for _, l := range links {
		d.i64(int64(l.A))
		d.i64(int64(l.B))
		d.i64(int64(l.Delay))
		d.f64(l.CapacityMbps)
		d.f64(l.BaseUtilization)
		d.f64(l.BaseLossRate)
		d.f64(l.DiurnalAmplitude)
		d.f64(l.DiurnalPhase)
		d.i64(int64(l.MaxQueueDelay))
		events := l.Events()
		d.i64(int64(len(events)))
		for _, e := range events {
			d.i64(int64(e.Start))
			d.i64(int64(e.End))
			d.f64(e.ExtraUtilization)
			d.f64(e.ExtraLoss)
		}
	}

	for _, a := range in.ASes {
		d.i64(int64(a.ASN))
		d.str(a.Name)
		d.i64(int64(a.Tier))
		d.i64(int64(len(a.Routers)))
		for i, r := range a.Routers {
			d.i64(int64(r))
			d.str(a.Presence[i].Name)
		}
		for _, asns := range [][]int{a.Providers, a.Customers, a.Peers} {
			d.i64(int64(len(asns)))
			for _, asn := range asns {
				d.i64(int64(asn))
			}
		}
	}

	keys := make([]asPairKey, 0, len(in.peerings))
	for k := range in.peerings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lo != keys[j].lo {
			return keys[i].lo < keys[j].lo
		}
		return keys[i].hi < keys[j].hi
	})
	for _, k := range keys {
		d.i64(int64(k.lo))
		d.i64(int64(k.hi))
		pps := in.peerings[k]
		d.i64(int64(len(pps)))
		for _, p := range pps {
			d.i64(int64(p.a))
			d.i64(int64(p.b))
		}
	}

	hosts := append(append([]Host(nil), in.Clients...), in.Servers...)
	for _, city := range in.DCOrder {
		hosts = append(hosts, in.DCs[city])
	}
	for _, h := range hosts {
		d.i64(int64(h.Node))
		d.i64(int64(h.Access))
		d.i64(int64(h.ASN))
		d.str(h.Loc.Name)
		d.i64(int64(h.Role))
		d.str(h.Name)
	}
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// digester feeds fixed-width values and length-prefixed strings to a hash.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) f64(v float64) { d.i64(int64(math.Float64bits(v))) }

func (d *digester) str(s string) {
	d.i64(int64(len(s)))
	d.h.Write([]byte(s))
}

// TestRoutesGolden pins the routing of whole campaigns: every ordered AS
// pair's default AS path and its valley-freedom, every server -> client
// router path, and every server -> DC and DC -> client leg (the legs of
// every OverlayRoute). It hashes public outputs only, so a change to how
// routes are stored or computed must keep these digests.
func TestRoutesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"DefaultConfig(42)", DefaultConfig(42), "c3f1253a8e1982b7"},
		{"DefaultConfig(7)", DefaultConfig(7), "f11361ef3cdba10a"},
		{"smallConfig(7)", smallConfig(7), "34f3137f679ebffb"},
	} {
		in, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := routesDigest(in); got != tc.want {
			t.Errorf("%s: routes digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// routesDigest hashes the routing outputs of in, in a fixed order. A
// failed lookup hashes its error text.
func routesDigest(in *Internet) string {
	d := digester{h: fnv.New64a()}
	for _, src := range in.ASes {
		for _, dst := range in.ASes {
			path, err := in.ASPath(src.ASN, dst.ASN)
			if err != nil {
				d.str(err.Error())
				continue
			}
			d.i64(int64(len(path)))
			for _, asn := range path {
				d.i64(int64(asn))
			}
			if in.IsValleyFree(path) {
				d.i64(1)
			} else {
				d.i64(0)
			}
		}
	}

	routerPath := func(from, to Host) {
		p, err := in.RouterPath(from, to)
		if err != nil {
			d.str(err.Error())
			return
		}
		d.i64(int64(len(p.Nodes)))
		for _, n := range p.Nodes {
			d.i64(int64(n))
		}
	}
	for _, s := range in.Servers {
		for _, c := range in.Clients {
			routerPath(s, c)
		}
	}
	for _, city := range in.DCOrder {
		dc := in.DCs[city]
		for _, s := range in.Servers {
			routerPath(s, dc)
		}
		for _, c := range in.Clients {
			routerPath(dc, c)
		}
	}
	return fmt.Sprintf("%016x", d.h.Sum64())
}
