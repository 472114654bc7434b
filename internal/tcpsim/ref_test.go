package tcpsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"cronets/internal/netsim"
)

// refRunSplit is a dedicated two-half split loop, the reference for
// RunSplit (the two-segment RunSplitChain). RunSplit must reproduce every
// Result field of it bit for bit except Rounds: the reference parks a
// finished sender at t2+1 ns, the chain loop moves it to the other clock
// first, so the two count different numbers of idle iterations.
func refRunSplit(rng *rand.Rand, first, second PathFunc, cfg SplitConfig, spec Spec) (Result, error) {
	if spec.Duration <= 0 && spec.TransferBytes <= 0 {
		return Result{}, ErrSpec
	}
	if cfg.RelayBufferBytes <= 0 {
		cfg.RelayBufferBytes = 4 << 20
	}
	var (
		f1, f2    = newFlow(cfg.Flow), newFlow(cfg.Flow)
		t1, t2    time.Duration
		buffered  int64
		srcSent   int64
		delivered int64
		rounds    int
	)
	mss := int64(cfg.Flow.MSSBytes)
	done := func() bool {
		if spec.TransferBytes > 0 && delivered >= spec.TransferBytes {
			return true
		}
		if spec.Duration > 0 && t1 >= spec.Duration && t2 >= spec.Duration {
			return true
		}
		return false
	}
	for !done() {
		rounds++
		if rounds > 10_000_000 {
			return Result{}, errors.New("tcpsim: split flow did not terminate")
		}
		if t1 <= t2 {
			if spec.Duration > 0 && t1 >= spec.Duration {
				t1 = t2 + 1
				continue
			}
			free := cfg.RelayBufferBytes - buffered
			limit := math.Floor(float64(free) / float64(mss))
			if spec.TransferBytes > 0 {
				remaining := math.Ceil(float64(spec.TransferBytes-srcSent) / float64(mss))
				if remaining <= 0 {
					t1 = t2 + 1
					continue
				}
				limit = math.Min(limit, remaining)
			}
			if limit < 1 {
				if t2 > t1 {
					t1 = t2
				} else {
					t1 += time.Millisecond
				}
				continue
			}
			out := f1.step(rng, first(t1), t1, limit)
			got := int64(out.delivered) * mss
			buffered += got
			srcSent += got
			t1 += out.rtt
			if out.timeout {
				t1 += rtoFor(out.rtt)
			}
		} else {
			if spec.Duration > 0 && t2 >= spec.Duration {
				t2 = t1 + 1
				continue
			}
			avail := math.Floor(float64(buffered) / float64(mss))
			if avail < 1 {
				if t1 > t2 {
					t2 = t1
				} else {
					t2 += time.Millisecond
				}
				continue
			}
			out := f2.step(rng, second(t2), t2, avail)
			got := int64(out.delivered) * mss
			buffered -= got
			if buffered < 0 {
				buffered = 0
			}
			delivered += got
			t2 += out.rtt
			if out.timeout {
				t2 += rtoFor(out.rtt)
			}
		}
	}
	elapsed := t2
	if spec.Duration > 0 && elapsed > spec.Duration {
		elapsed = spec.Duration
	}
	res := Result{
		Bytes:    delivered,
		Elapsed:  elapsed,
		Rounds:   rounds,
		Timeouts: f1.timeouts + f2.timeouts,
	}
	if elapsed > 0 {
		res.ThroughputMbps = float64(delivered) * 8 / elapsed.Seconds() / 1e6
	}
	if sent := f1.sentPkts + f2.sentPkts; sent > 0 {
		res.RetransRate = (f1.lostPkts + f2.lostPkts) / sent
	}
	var rtt float64
	if f1.rttWeight > 0 {
		rtt += f1.rttSum / f1.rttWeight
	}
	if f2.rttWeight > 0 {
		rtt += f2.rttSum / f2.rttWeight
	}
	res.AvgRTT = time.Duration(rtt * float64(time.Second))
	return res, nil
}

// refSimulateRound is the path half of a round written out on its own,
// the reference for simulateRound (one step of a throwaway flow).
// simulateRound must return the same roundOutcome and draw the same
// random numbers.
func refSimulateRound(rng *rand.Rand, m netsim.Metrics, cfg Config, sendPkts float64) roundOutcome {
	mssBits := float64(cfg.MSSBytes) * 8
	baseRTT := m.BaseRTT + m.QueueDelayRTT
	if baseRTT <= 0 {
		baseRTT = time.Millisecond
	}
	bdp := m.AvailableMbps * 1e6 * baseRTT.Seconds() / mssBits
	if bdp < 1 {
		bdp = 1
	}
	buffer := bdp * cfg.BufferBDP

	send := sendPkts
	if send < 1 {
		send = 1
	}
	var congLost float64
	rtt := baseRTT
	if send > bdp {
		queued := math.Min(send-bdp, buffer)
		rtt += time.Duration(queued * mssBits / (m.AvailableMbps * 1e6) * float64(time.Second))
		if send > bdp+buffer {
			congLost = send - (bdp + buffer)
			send = bdp + buffer
		}
	}
	randomLost := float64(binomial(rng, int(send), m.LossRate))
	lost := congLost + randomLost
	delivered := send + congLost - lost
	if delivered < 0 {
		delivered = 0
	}
	return roundOutcome{sent: send + congLost, delivered: delivered, lost: lost, rtt: rtt, timeout: delivered == 0}
}

// randMetrics draws path metrics spanning clean to very lossy, with RTTs
// and rates low enough that the bandwidth-delay product can fall below
// one segment.
func randMetrics(r *rand.Rand) netsim.Metrics {
	m := netsim.Metrics{
		BaseRTT:       time.Duration(1+r.Intn(300)) * time.Millisecond,
		QueueDelayRTT: time.Duration(r.Intn(20)) * time.Millisecond,
		AvailableMbps: []float64{0.05, 1, 10, 100, 1000}[r.Intn(5)] * (0.5 + r.Float64()),
		Hops:          1 + r.Intn(20),
	}
	switch r.Intn(4) {
	case 0: // lossless
	case 1:
		m.LossRate = r.Float64() * 1e-3
	case 2:
		m.LossRate = r.Float64() * 5e-2
	default:
		m.LossRate = r.Float64() * 1e-5
	}
	m.BottleneckMbps = m.AvailableMbps
	return m
}

// randPath is a static path or a piecewise-constant time-varying one
// whose metrics change every period.
func randPath(r *rand.Rand) PathFunc {
	if r.Intn(2) == 0 {
		return StaticPath(randMetrics(r))
	}
	pieces := make([]netsim.Metrics, 2+r.Intn(6))
	for i := range pieces {
		pieces[i] = randMetrics(r)
	}
	period := time.Duration(50+r.Intn(2000)) * time.Millisecond
	return func(at time.Duration) netsim.Metrics {
		return pieces[int(at/period)%len(pieces)]
	}
}

// randSplitScript draws one randomized split run: two paths, Reno or
// CUBIC, a relay buffer of 1-64 segments (not always a whole number) or
// the default, and a byte, duration or combined spec.
func randSplitScript(r *rand.Rand) (first, second PathFunc, cfg SplitConfig, spec Spec) {
	first, second = randPath(r), randPath(r)
	cfg = DefaultSplitConfig()
	if r.Intn(2) == 0 {
		cfg.Flow.Alg = Reno
	}
	if r.Intn(4) != 0 {
		mss := int64(cfg.Flow.MSSBytes)
		cfg.RelayBufferBytes = (1+r.Int63n(64))*mss + r.Int63n(mss)
	} else if r.Intn(2) == 0 {
		cfg.RelayBufferBytes = 0
	}
	switch r.Intn(3) {
	case 0:
		spec.TransferBytes = 1 + r.Int63n(8<<20)
	case 1:
		spec.Duration = time.Duration(1+r.Intn(10_000)) * time.Millisecond
	default:
		spec.TransferBytes = 1 + r.Int63n(8<<20)
		spec.Duration = time.Duration(1+r.Intn(10_000)) * time.Millisecond
	}
	return first, second, cfg, spec
}

// TestRunSplitMatchesReference runs randomized scripts through RunSplit
// and the reference loop and requires every Result field but Rounds to
// match with ==: the core goldens and the benchmark digests would miss a
// last-ulp change here.
func TestRunSplitMatchesReference(t *testing.T) {
	scripts := 3000
	if testing.Short() {
		scripts = 300
	}
	r := rand.New(rand.NewSource(20161017))
	for i := 0; i < scripts; i++ {
		first, second, cfg, spec := randSplitScript(r)
		seed := r.Int63()
		got, err := RunSplit(rand.New(rand.NewSource(seed)), first, second, cfg, spec)
		if err != nil {
			t.Fatalf("script %d: RunSplit: %v", i, err)
		}
		want, err := refRunSplit(rand.New(rand.NewSource(seed)), first, second, cfg, spec)
		if err != nil {
			t.Fatalf("script %d: reference: %v", i, err)
		}
		got.Rounds, want.Rounds = 0, 0
		if got != want {
			t.Fatalf("script %d (cfg %+v, spec %+v):\n got  %+v\n want %+v", i, cfg, spec, got, want)
		}
	}
}

// TestSimulateRoundMatchesReference feeds random windows and paths,
// including windows below one segment, a bandwidth-delay product below
// one segment and loss rates of exactly 0 and 1, through simulateRound and
// the reference. One shared seed per side checks that both draw the same
// random numbers in the same order.
func TestSimulateRoundMatchesReference(t *testing.T) {
	inputs := 2_000_000
	if testing.Short() {
		inputs = 200_000
	}
	r := rand.New(rand.NewSource(7))
	gotRng, wantRng := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < inputs; i++ {
		m := randMetrics(r)
		switch r.Intn(8) {
		case 0:
			m.LossRate = 0
		case 1:
			m.LossRate = 1
		}
		cfg := DefaultConfig()
		if r.Intn(2) == 0 {
			cfg.Alg = Reno
		}
		cfg.BufferBDP = []float64{0, 0.4, 1, 2.5}[r.Intn(4)]
		var send float64
		switch r.Intn(4) {
		case 0:
			send = r.Float64() * 1.5 // below one segment
		case 1:
			send = float64(r.Intn(64))
		default:
			send = r.Float64() * 4096
		}
		got := simulateRound(gotRng, m, cfg, send)
		want := refSimulateRound(wantRng, m, cfg, send)
		if got != want {
			t.Fatalf("input %d (m %+v, send %v):\n got  %+v\n want %+v", i, m, send, got, want)
		}
	}
	if gotRng.Int63() != wantRng.Int63() {
		t.Fatal("simulateRound drew a different number of random values than the reference")
	}
}
