package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"cronets/internal/core"
	"cronets/internal/experiments"
	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// realLifeSpec is the Fig. 2 download: 100 MB, capped at two minutes of
// simulated time (the spec experiments.RunRealLife measures with).
var realLifeSpec = tcpsim.Spec{TransferBytes: 100 << 20, Duration: 2 * time.Minute}

// digestPairs is how many pairs the sim digest covers.
const digestPairs = 16

// simDigests pins the results of the first digestPairs pairs for the
// seeds whose outputs are recorded; any change to the simulator's numbers
// fails the run on these seeds.
var simDigests = map[int64]string{
	42: "aa8e41c9b2ffd943",
	7:  "6cc629efc556501e",
}

// simTopologySeed generates the simulated Internet: the paper-scale
// topology the repository's figure benchmarks use. It is fixed so that
// runs with different seeds simulate the same world; a run's seed picks
// the pairs' TCP randomness.
const simTopologySeed = 42

// realLifePaths is the size of the paper's Fig. 2 campaign: 1,100
// server × client pairs, each over the direct path and 5 overlays.
const realLifePaths = 6600

// newRand returns a math/rand source for seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pairSeed derives op p's TCP randomness from the run's seed.
func pairSeed(seed int64, p int) int64 { return seed*1_000_003 + int64(p) }

// hostPair is one (server, client) download of Fig. 2.
type hostPair struct{ src, dst topology.Host }

// simRun walks the Fig. 2 campaign one pair per op, in a seeded shuffle
// of RunRealLife's server × client pairs. Routes are computed lazily
// inside MeasurePair, as in RunRealLife.
//
// The order is shuffled because a pair's cost depends mostly on its
// server (a mean of 6.5 to 18 ms per pair, by server, at seed 42): in
// RunRealLife's order one second of ops measures one server's clients
// and the next second another's, and which servers a window reaches
// follows the host's speed, so the rates of runs spread with it.
// Shuffled, every second samples the whole campaign.
type simRun struct {
	s     *experiments.Suite
	dcs   []string
	pairs []hostPair
	seed  int64
	paths int               // paths measured
	first []core.PairResult // the results of the first digestPairs ops
}

func newSimRun(seed int64) (*simRun, error) {
	s, err := experiments.NewSuite(simTopologySeed, experiments.ScaleFull)
	if err != nil {
		return nil, err
	}
	r := &simRun{s: s, dcs: s.CN.DCCities(), seed: seed}
	for _, srv := range s.In.Servers {
		for _, cl := range s.In.Clients {
			r.pairs = append(r.pairs, hostPair{srv, cl})
		}
	}
	rng := newRand(seed)
	rng.Shuffle(len(r.pairs), func(i, j int) { r.pairs[i], r.pairs[j] = r.pairs[j], r.pairs[i] })
	return r, nil
}

// op measures pair i mod len(pairs) with core.MeasurePair: its direct
// path and one overlay per data center, each a simulated 100 MB download.
func (r *simRun) op(l *spanLog, i int) error {
	hp := r.pairs[i%len(r.pairs)]
	l.begin(i, "core.MeasurePair")
	pr, err := r.s.CN.MeasurePair(newRand(pairSeed(r.seed, i)), hp.src, hp.dst, r.dcs, realLifeSpec, 0)
	l.end()
	if err != nil {
		return err
	}
	if len(pr.Overlays) != len(r.dcs) {
		return fmt.Errorf("%d overlays measured, want %d", len(pr.Overlays), len(r.dcs))
	}
	r.paths += 1 + len(pr.Overlays)
	if i < digestPairs {
		r.first = append(r.first, pr)
	}
	if err := checkMeasurement(pr.Direct); err != nil {
		return err
	}
	for _, o := range pr.Overlays {
		for _, m := range []core.Measurement{o.Plain, o.Split, o.Discrete} {
			if err := checkMeasurement(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkMeasurement rejects a result no real path can have.
func checkMeasurement(m core.Measurement) error {
	if !(m.ThroughputMbps > 0) || math.IsInf(m.ThroughputMbps, 0) || m.AvgRTT <= 0 ||
		m.RetransRate < 0 || math.IsNaN(m.RetransRate) {
		return fmt.Errorf("implausible %s measurement: %+v", m.Kind, m)
	}
	return nil
}

// digest hashes every result bit of the given pairs.
func digest(prs []core.PairResult) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(m core.Measurement) {
		for _, v := range []uint64{math.Float64bits(m.ThroughputMbps), math.Float64bits(m.RetransRate), uint64(m.AvgRTT)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, pr := range prs {
		put(pr.Direct)
		for _, o := range pr.Overlays {
			put(o.Plain)
			put(o.Split)
			put(o.Discrete)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simLadder times the simulator's layers on a seeded sample of pairs:
// topology generation; route lookups cold (the first lookup toward a
// destination computes its BGP table) and warm; tcpsim over a static
// path and over netsim's time-varying path; and core.MeasurePair.
func (t *tracedRun) simLadder() error {
	l := t.spans
	timed := func(name string, f func() error) float64 {
		t.ops++
		l.begin(t.next, name)
		t0 := time.Now()
		err := f()
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		l.end()
		t.next++
		if err != nil {
			t.failed++
			t.fail = append(t.fail, fmt.Sprintf("%s: %v", name, err))
		}
		return us
	}

	var gens []float64
	for k := 0; k < 3; k++ {
		gens = append(gens, timed("topology.Generate", func() error {
			_, err := topology.Generate(topology.DefaultConfig(simTopologySeed))
			return err
		})/1e3)
	}
	t.layer["topology.generate_ms"] = median(gens)

	s, err := experiments.NewSuite(simTopologySeed, experiments.ScaleFull)
	if err != nil {
		return err
	}
	dcs := s.CN.DCCities()
	rng := newRand(t.o.seed)
	nPairs := min(200, max(20, int(20*t.o.seconds)))
	pairs := make([]hostPair, nPairs)
	for i := range pairs {
		pairs[i] = hostPair{s.In.Servers[rng.Intn(len(s.In.Servers))], s.In.Clients[rng.Intn(len(s.In.Clients))]}
	}
	lookups := func() error {
		for _, p := range pairs {
			if _, err := s.In.RouterPath(p.src, p.dst); err != nil {
				return err
			}
			for _, dc := range dcs {
				if _, err := s.In.OverlayRoute(p.src, p.dst, dc); err != nil {
					return err
				}
			}
		}
		return nil
	}
	cold := timed("topology.routes/cold", lookups)
	warm := timed("topology.routes/warm", lookups)
	t.layer["topology.bgp_ms"] = (cold - warm) / 1e3
	t.layer["topology.route_us"] = warm / float64(nPairs)

	cfg := core.DefaultConfig()
	split := tcpsim.SplitConfig{Flow: cfg.Flow, RelayBufferBytes: cfg.RelayBufferBytes}
	var static, network, splits []float64
	for i, p := range pairs {
		path, err := s.In.RouterPath(p.src, p.dst)
		if err != nil {
			return err
		}
		route, err := s.In.OverlayRoute(p.src, p.dst, dcs[i%len(dcs)])
		if err != nil {
			return err
		}
		m, err := s.In.Net.PathMetrics(path, 0)
		if err != nil {
			return err
		}
		m1, err := s.In.Net.PathMetrics(route.ToDC, 0)
		if err != nil {
			return err
		}
		m2, err := s.In.Net.PathMetrics(route.FromDC, 0)
		if err != nil {
			return err
		}
		nf, err := tcpsim.NetworkPath(s.In.Net, path, 0)
		if err != nil {
			return err
		}
		seed := pairSeed(t.o.seed, i)
		run := func(pf tcpsim.PathFunc) func() error {
			return func() error {
				_, err := tcpsim.Run(newRand(seed), pf, cfg.Flow, realLifeSpec)
				return err
			}
		}
		static = append(static, timed("tcpsim.Run/static", run(tcpsim.StaticPath(m))))
		network = append(network, timed("tcpsim.Run/network", run(nf)))
		splits = append(splits, timed("tcpsim.RunSplit/static", func() error {
			_, err := tcpsim.RunSplit(newRand(seed), tcpsim.StaticPath(m1), tcpsim.StaticPath(m2), split, realLifeSpec)
			return err
		}))
	}
	t.layer["tcpsim.run_us"] = median(static)
	t.layer["tcpsim.split_us"] = median(splits)
	t.layer["netsim.us_per_run"] = median(network) - median(static)

	var pairMS []float64
	for i, p := range pairs[:max(1, nPairs/4)] {
		pairMS = append(pairMS, timed("core.MeasurePair", func() error {
			_, err := s.CN.MeasurePair(newRand(pairSeed(t.o.seed, i)), p.src, p.dst, dcs, realLifeSpec, 0)
			return err
		})/1e3)
	}
	t.layer["core.pair_ms"] = median(pairMS)
	return nil
}

// setupSim: the Fig. 2 simulator. Set-up is experiments.NewSuite; every
// op measures one server × client pair.
func setupSim(e env) (*instance, error) {
	r, err := newSimRun(e.seed)
	if err != nil {
		return nil, err
	}
	in := &instance{traffic: "none (simulator)"}
	in.op = func(i int) error { return r.op(e.spans, i) }
	var got string
	in.check = func(int) []string {
		var out []string
		if n := len(r.pairs) * (1 + len(r.dcs)); n != realLifePaths {
			out = append(out, fmt.Sprintf("the campaign has %d paths, want %d", n, realLifePaths))
		}
		if len(r.first) < digestPairs {
			return append(out, fmt.Sprintf("%d pairs measured, the digest needs %d", len(r.first), digestPairs))
		}
		got = digest(r.first)
		if want, ok := simDigests[e.seed]; ok && got != want {
			out = append(out, fmt.Sprintf("result digest %s, recorded %s", got, want))
		}
		return out
	}
	in.detail = func(m map[string]any) {
		m["campaign_pairs"] = len(r.pairs)
		m["paths_measured"] = r.paths
		m["digest_first_pairs"] = got
	}
	return in, nil
}
