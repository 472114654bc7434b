// Package tcpsim simulates TCP data transfers over paths described by
// netsim metrics. The model is round-based: each iteration represents one
// round-trip in which the congestion window's worth of segments is sent,
// per-packet losses are drawn from the path's composed loss rate, and the
// congestion window reacts (Reno AIMD or CUBIC). Self-induced queueing and
// drops appear when the window exceeds the path's bandwidth-delay product
// plus buffer, so a lossless fat path still converges to link rate instead
// of growing without bound.
//
// The simulator reproduces the macroscopic TCP behaviour the paper's
// analysis is built on (Mathis et al.: BW ~ MSS/(RTT*sqrt(p))), which is
// what makes split-TCP at an overlay node profitable: halving the RTT seen
// by each congestion-control loop roughly doubles the achievable rate.
//
// The same flow carries split-TCP cascades (RunSplitChain) and the subflows
// of a Multipath TCP connection (RunMPTCP), whose congestion avoidance is
// coupled across paths (LIA, OLIA) or not.
package tcpsim

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"cronets/internal/netsim"
)

// Algorithm selects the congestion-control algorithm of a simulated flow.
type Algorithm int

// Supported congestion-control algorithms.
const (
	Reno Algorithm = iota + 1
	Cubic
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Reno:
		return "reno"
	case Cubic:
		return "cubic"
	default:
		return "unknown"
	}
}

// PathFunc supplies the metrics of a path at a given simulation time,
// letting callers express time-varying congestion.
type PathFunc func(at time.Duration) netsim.Metrics

// StaticPath wraps fixed metrics as a PathFunc.
func StaticPath(m netsim.Metrics) PathFunc {
	return func(time.Duration) netsim.Metrics { return m }
}

// NetworkPath builds a PathFunc sampling the live metrics of path p in n,
// offset by start (so longitudinal samples taken at different wall times see
// different transient-event states). The path's links are resolved once
// here, so an invalid path fails now and sampling costs no lookups.
func NetworkPath(n *netsim.Network, p netsim.Path, start time.Duration) (PathFunc, error) {
	r, err := n.ResolvePath(p)
	if err != nil {
		return nil, err
	}
	return func(at time.Duration) netsim.Metrics {
		return r.MetricsAt(start + at)
	}, nil
}

// ConcatPath builds a PathFunc for a one-hop overlay path: the two segment
// PathFuncs composed with the relay's per-packet overhead.
func ConcatPath(a, b PathFunc, relayOverhead time.Duration) PathFunc {
	return func(at time.Duration) netsim.Metrics {
		return netsim.ConcatMetrics(a(at), b(at), relayOverhead)
	}
}

// Config holds the per-flow simulation parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Alg is the congestion-control algorithm.
	Alg Algorithm
	// MSSBytes is the maximum segment size.
	MSSBytes int
	// MaxCwnd caps the window in segments (receive-window stand-in).
	MaxCwnd float64
	// BufferBDP is the bottleneck buffer size as a multiple of the path
	// bandwidth-delay product.
	BufferBDP float64
}

const (
	// initCwnd is the initial congestion window in segments (IW10).
	initCwnd = 10
	// minRTO is the minimum retransmission timeout.
	minRTO = time.Second
)

// DefaultConfig returns the standard flow parameters (Linux-like defaults
// of the paper's era: 1460-byte MSS, 0.4-BDP bottleneck buffers, CUBIC,
// and a ~1.5 MB receive window; every flow starts at IW10 and keeps a 1 s
// minimum RTO, the constants above). The receive-window cap is
// load-bearing: it makes throughput proportional to 1/RTT on clean paths,
// which is why the plain tunnel's RTT detour often loses while split-TCP's
// RTT halving wins (the paper's Section II analysis).
func DefaultConfig() Config {
	return Config{
		Alg:       Cubic,
		MSSBytes:  1460,
		MaxCwnd:   1024,
		BufferBDP: 0.4,
	}
}

// Spec describes what to run: a timed transfer (the paper's 30 s iperf
// runs), a fixed-size transfer (the 100 MB file downloads), or both limits.
type Spec struct {
	// Duration stops the flow after this much simulated time (0 = no limit).
	Duration time.Duration
	// TransferBytes stops the flow after this many acknowledged bytes
	// (0 = no limit). At least one limit must be set.
	TransferBytes int64
}

// Result summarizes a simulated flow: the three metrics the paper measures
// (throughput via iperf, retransmission rate and average RTT via tstat).
type Result struct {
	// ThroughputMbps is acknowledged payload bits over elapsed time.
	ThroughputMbps float64
	// RetransRate is retransmitted segments over total segments sent,
	// tstat's retransmission-rate estimate.
	RetransRate float64
	// AvgRTT is the packet-weighted average round-trip time, including
	// background and self-induced queueing.
	AvgRTT time.Duration
	// Bytes is the total acknowledged payload.
	Bytes int64
	// Elapsed is the simulated duration of the flow.
	Elapsed time.Duration
	// Rounds is the number of simulated RTT rounds. For split runs it
	// counts loop iterations over all segments, idle ones included.
	Rounds int
	// Timeouts counts retransmission timeouts.
	Timeouts int
}

// ErrSpec is returned when a Spec has neither a duration nor a byte limit.
var ErrSpec = errors.New("tcpsim: spec needs a duration or transfer size")

// flow holds the mutable per-flow state shared by Run and the split/MPTCP
// simulators.
type flow struct {
	cfg  Config
	cwnd float64
	ssth float64

	// CUBIC state. k is the epoch's K = cbrt(wMax*(1-beta)/C), the time
	// the cubic takes to climb back to wMax; startEpoch keeps it with wMax.
	wMax       float64
	k          float64
	epochStart time.Duration
	epochSet   bool

	// Accounting.
	sentPkts  float64
	lostPkts  float64
	ackedPkts float64
	rttWeight float64
	rttSum    float64 // seconds * packets
	timeouts  int
}

func newFlow(cfg Config) *flow {
	return &flow{cfg: cfg, cwnd: initCwnd, ssth: math.Inf(1)}
}

// cubicBeta and cubicC are the standard CUBIC constants.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// startEpoch starts a CUBIC epoch at now that climbs back to wMax.
func (f *flow) startEpoch(now time.Duration, wMax float64) {
	f.wMax = wMax
	f.k = math.Cbrt(wMax * (1 - cubicBeta) / cubicC)
	f.epochStart = now
	f.epochSet = true
}

// onLoss applies the multiplicative decrease for a loss round.
func (f *flow) onLoss(now time.Duration) {
	switch f.cfg.Alg {
	case Cubic:
		f.startEpoch(now, f.cwnd)
		f.cwnd *= cubicBeta
	default: // Reno
		f.cwnd /= 2
	}
	if f.cwnd < 1 {
		f.cwnd = 1
	}
	f.ssth = f.cwnd
}

// onTimeout collapses the window after an RTO.
func (f *flow) onTimeout() {
	f.ssth = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.epochSet = false
	f.timeouts++
}

// grow applies one round's congestion-window growth for a loss-free round.
func (f *flow) grow(now time.Duration, rtt time.Duration) {
	if f.cwnd < f.ssth {
		// Slow start: the window doubles every RTT.
		f.cwnd *= 2
		if f.cwnd > f.ssth {
			f.cwnd = f.ssth
		}
	} else {
		switch f.cfg.Alg {
		case Cubic:
			if !f.epochSet {
				f.startEpoch(now, f.cwnd)
			}
			// d*d*d has the bits of math.Pow(d, 3) whenever the cube is a
			// normal float, as it is here: wMax >= 1 keeps K above 0.9, so
			// d is 0 or larger than 1e-17 in magnitude.
			d := (now + rtt - f.epochStart).Seconds() - f.k
			target := cubicC*(d*d*d) + f.wMax
			if target > f.cwnd {
				// Don't grow faster than slow start.
				if target > f.cwnd*2 {
					target = f.cwnd * 2
				}
				f.cwnd = target
			} else {
				// TCP-friendly region: at least Reno's growth.
				f.cwnd++
			}
		default: // Reno congestion avoidance
			f.cwnd++
		}
	}
	if f.cwnd > f.cfg.MaxCwnd {
		f.cwnd = f.cfg.MaxCwnd
	}
}

// roundOutcome is what happened to one RTT round's worth of segments.
type roundOutcome struct {
	sent      float64
	delivered float64
	lost      float64
	rtt       time.Duration
	timeout   bool
}

// step simulates one round of the flow over the given path metrics, sending
// at most limitPkts segments (limitPkts < 0 means no external limit).
// External limits model receive-side backpressure (split relay buffers).
func (f *flow) step(rng *rand.Rand, m netsim.Metrics, now time.Duration, limitPkts float64) roundOutcome {
	mssBits := float64(f.cfg.MSSBytes) * 8
	baseRTT := m.BaseRTT + m.QueueDelayRTT
	if baseRTT <= 0 {
		baseRTT = time.Millisecond
	}

	// Path capacity in packets per RTT (the BDP) and the buffer on top.
	bdp := m.AvailableMbps * 1e6 * baseRTT.Seconds() / mssBits
	if bdp < 1 {
		bdp = 1
	}
	buffer := bdp * f.cfg.BufferBDP

	send := f.cwnd
	if limitPkts >= 0 && send > limitPkts {
		send = limitPkts
	}
	if send < 1 {
		send = 1
	}

	// HyStart-like slow-start exit: once the window reaches the path BDP,
	// queueing delay starts building; leave slow start before the
	// exponential growth blows through the buffer in one burst.
	if f.cwnd < f.ssth && send >= bdp {
		f.ssth = f.cwnd
	}

	// Self-induced queueing: window beyond the BDP sits in the bottleneck
	// buffer; beyond BDP+buffer it is dropped.
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

	out := roundOutcome{sent: send + congLost, delivered: delivered, lost: lost, rtt: rtt}
	f.sentPkts += out.sent
	f.lostPkts += lost
	f.ackedPkts += delivered
	f.rttSum += rtt.Seconds() * math.Max(delivered, 1)
	f.rttWeight += math.Max(delivered, 1)

	if delivered == 0 {
		out.timeout = true
		f.onTimeout()
	} else if lost > 0 {
		f.onLoss(now)
	} else {
		f.grow(now, rtt)
	}
	return out
}

// Run simulates a single TCP flow over the path until the spec's limit.
func Run(rng *rand.Rand, path PathFunc, cfg Config, spec Spec) (Result, error) {
	if spec.Duration <= 0 && spec.TransferBytes <= 0 {
		return Result{}, ErrSpec
	}
	f := newFlow(cfg)
	var (
		now   time.Duration
		bytes int64
		round int
	)
	mss := int64(cfg.MSSBytes)
	for {
		if spec.Duration > 0 && now >= spec.Duration {
			break
		}
		if spec.TransferBytes > 0 && bytes >= spec.TransferBytes {
			break
		}
		m := path(now)
		limit := -1.0
		if spec.TransferBytes > 0 {
			remaining := float64(spec.TransferBytes-bytes) / float64(mss)
			limit = math.Ceil(remaining)
		}
		out := f.step(rng, m, now, limit)
		bytes += int64(out.delivered) * mss
		if out.timeout {
			now += rtoFor(out.rtt)
		} else {
			now += out.rtt
		}
		round++
		if round > 5_000_000 {
			return Result{}, errors.New("tcpsim: flow did not terminate")
		}
	}
	return f.result(bytes, now, round), nil
}

func (f *flow) result(bytes int64, elapsed time.Duration, rounds int) Result {
	res := Result{
		Bytes:    bytes,
		Elapsed:  elapsed,
		Rounds:   rounds,
		Timeouts: f.timeouts,
	}
	if elapsed > 0 {
		res.ThroughputMbps = float64(bytes) * 8 / elapsed.Seconds() / 1e6
	}
	if f.sentPkts > 0 {
		res.RetransRate = f.lostPkts / f.sentPkts
	}
	if f.rttWeight > 0 {
		res.AvgRTT = time.Duration(f.rttSum / f.rttWeight * float64(time.Second))
	}
	return res
}

// binomial draws the number of successes in n Bernoulli(p) trials. Exact
// sampling for small n, normal approximation for large n*p, Poisson
// approximation for large n with small p.
func binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	switch {
	case n <= 64:
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	case float64(n)*p < 12:
		// Poisson approximation with lambda = n*p.
		lambda := float64(n) * p
		l := math.Exp(-lambda)
		k := 0
		prod := rng.Float64()
		for prod > l {
			k++
			prod *= rng.Float64()
			if k > n {
				return n
			}
		}
		return k
	default:
		// Normal approximation.
		mean := float64(n) * p
		sd := math.Sqrt(float64(n) * p * (1 - p))
		k := int(math.Round(rng.NormFloat64()*sd + mean))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
}
