package tcpsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// refCubic is the CUBIC window logic of flow written the direct way: K is a
// cube root and the cubic a math.Pow, both taken every congestion-avoidance
// round. flow must reproduce its windows bit for bit.
type refCubic struct {
	cfg        Config
	cwnd, ssth float64
	wMax       float64
	epochStart time.Duration
	epochSet   bool
	// below and above count congestion-avoidance rounds sampled before
	// and after the cubic's inflection point K.
	below, above int
}

func (r *refCubic) onLoss(now time.Duration) {
	r.wMax = r.cwnd
	r.cwnd *= cubicBeta
	r.epochStart = now
	r.epochSet = true
	if r.cwnd < 1 {
		r.cwnd = 1
	}
	r.ssth = r.cwnd
}

func (r *refCubic) onTimeout() {
	r.ssth = math.Max(r.cwnd/2, 2)
	r.cwnd = 1
	r.epochSet = false
}

func (r *refCubic) grow(now, rtt time.Duration) {
	if r.cwnd < r.ssth {
		r.cwnd *= 2
		if r.cwnd > r.ssth {
			r.cwnd = r.ssth
		}
	} else {
		if !r.epochSet {
			r.wMax = r.cwnd
			r.epochStart = now
			r.epochSet = true
		}
		t := (now + rtt - r.epochStart).Seconds()
		k := math.Cbrt(r.wMax * (1 - cubicBeta) / cubicC)
		if t < k {
			r.below++
		} else if t > k {
			r.above++
		}
		target := cubicC*math.Pow(t-k, 3) + r.wMax
		if target > r.cwnd {
			if target > r.cwnd*2 {
				target = r.cwnd * 2
			}
			r.cwnd = target
		} else {
			r.cwnd++
		}
	}
	if r.cwnd > r.cfg.MaxCwnd {
		r.cwnd = r.cfg.MaxCwnd
	}
}

// cubicEvent is what one scripted round does to the window.
type cubicEvent int

const (
	growRound cubicEvent = iota
	lossRound
	timeoutRound
)

// runCubicScript drives a flow and the reference through the same rounds,
// with round-trip times drawn from rng, and fails on the first round after
// which their windows differ in any bit.
func runCubicScript(t *testing.T, cfg Config, rng *rand.Rand, script []cubicEvent) *refCubic {
	t.Helper()
	f := newFlow(cfg)
	ref := &refCubic{cfg: cfg, cwnd: initCwnd, ssth: math.Inf(1)}
	var now time.Duration
	for i, ev := range script {
		rtt := 10*time.Millisecond + time.Duration(rng.Int63n(int64(290*time.Millisecond)))
		switch ev {
		case growRound:
			f.grow(now, rtt)
			ref.grow(now, rtt)
		case lossRound:
			f.onLoss(now)
			ref.onLoss(now)
		case timeoutRound:
			f.onTimeout()
			ref.onTimeout()
		}
		if math.Float64bits(f.cwnd) != math.Float64bits(ref.cwnd) || math.Float64bits(f.ssth) != math.Float64bits(ref.ssth) {
			t.Fatalf("round %d (event %d, now %v): cwnd %v ssth %v, reference cwnd %v ssth %v",
				i, ev, now, f.cwnd, f.ssth, ref.cwnd, ref.ssth)
		}
		now += rtt
	}
	return ref
}

// TestCubicWindowBitIdentical: keeping K per epoch and cubing by
// multiplication leaves every window bit unchanged, through slow start,
// losses, a timeout, and congestion-avoidance epochs long enough that t-K
// crosses zero, then through random runs of all three.
func TestCubicWindowBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCwnd = 1 << 20 // let the cubic run past wMax uncapped

	grow := func(n int) []cubicEvent { return slices.Repeat([]cubicEvent{growRound}, n) }
	script := slices.Concat(
		grow(8), // slow start to 2560
		[]cubicEvent{lossRound},
		grow(150), // t-K crosses zero
		[]cubicEvent{lossRound, lossRound},
		grow(100),
		[]cubicEvent{timeoutRound},
		grow(200), // slow start, then a fresh epoch
		[]cubicEvent{lossRound},
		grow(300),
	)
	ref := runCubicScript(t, cfg, rand.New(rand.NewSource(1)), script)
	if ref.below == 0 || ref.above == 0 {
		t.Fatalf("script sampled %d rounds before K and %d after; want both", ref.below, ref.above)
	}

	for _, maxCwnd := range []float64{1024, 1 << 20} {
		cfg.MaxCwnd = maxCwnd
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]cubicEvent, 5000)
			for i := range script {
				switch x := rng.Float64(); {
				case x < 0.002:
					script[i] = timeoutRound
				case x < 0.02:
					script[i] = lossRound
				}
			}
			runCubicScript(t, cfg, rng, script)
		}
	}
}

// TestCubeMatchesPow: d*d*d has the bits of math.Pow(d, 3) for finite d
// whose magnitude is in [1e-100, 1e100], where neither d*d nor the cube
// leaves the normal floats.
func TestCubeMatchesPow(t *testing.T) {
	cube := func(d float64) bool {
		return math.Float64bits(d*d*d) == math.Float64bits(math.Pow(d, 3))
	}
	cfg := &quick.Config{
		MaxCount: 200_000,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, rng *rand.Rand) {
			d := math.Pow(10, -100+200*rng.Float64())
			d = math.Min(math.Max(d, 1e-100), 1e100)
			if rng.Intn(2) == 0 {
				d = -d
			}
			args[0] = reflect.ValueOf(d)
		},
	}
	if err := quick.Check(cube, cfg); err != nil {
		t.Error(err)
	}
	for _, d := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-100, -1e-100, 1e100, -1e100} {
		if !cube(d) {
			t.Errorf("%v cubed = %v, math.Pow = %v", d, d*d*d, math.Pow(d, 3))
		}
	}
}
