package tcpsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cronets/internal/netsim"
)

// Coupling selects the congestion-control coupling across MPTCP subflows.
type Coupling int

// Coupling modes.
const (
	// LIA is the Linked-Increases Algorithm of RFC 6356 / Wischik et al.
	LIA Coupling = iota + 1
	// OLIA is the Opportunistic LIA of Khalili et al.
	OLIA
	// Uncoupled runs an independent congestion controller per subflow;
	// the aggregate is the sum of the per-path rates (the modified
	// configuration of the paper's Figure 13).
	Uncoupled
)

// String returns the coupling name.
func (c Coupling) String() string {
	switch c {
	case LIA:
		return "lia"
	case OLIA:
		return "olia"
	case Uncoupled:
		return "uncoupled"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// MPTCPConfig parameterizes an MPTCP run.
type MPTCPConfig struct {
	// Flow holds the per-subflow TCP parameters. In the coupled modes
	// every subflow halves its window on loss (RFC 6356) whatever Alg
	// says; for Uncoupled, Alg selects each subflow's whole controller.
	Flow Config
	// Coupling selects the cross-subflow congestion coupling.
	Coupling Coupling
	// SharedAccessMbps is the endpoint NIC rate all subflows share (the
	// paper's 100 Mbps virtual NICs). Zero disables the shared cap.
	SharedAccessMbps float64
	// ConnRwndPkts is the connection-level receive window in segments,
	// shared by all subflows (MPTCP's data-level flow control): when the
	// sum of subflow windows exceeds it, each subflow's effective send
	// window is scaled down proportionally. Zero disables the cap.
	ConnRwndPkts float64
}

// MPTCPResult reports the goodput of an MPTCP run.
type MPTCPResult struct {
	// TotalMbps is the aggregate goodput across subflows.
	TotalMbps float64
	// SubflowMbps is the per-subflow goodput, parallel to the input paths.
	SubflowMbps []float64
}

// subflow is one MPTCP path. Its flow holds the window, ssthresh and CUBIC
// epoch; the subflow adds its own clock and what the coupled increase and
// the shared NIC read from it.
type subflow struct {
	flow
	path     PathFunc
	now      time.Duration
	lastRTT  time.Duration
	rateMbps float64 // smoothed delivery rate, for the shared NIC cap
	bytes    int64
}

// RunMPTCP simulates one Multipath TCP (RFC 6824) connection across the
// given paths for the spec's duration: in the CRONets setting, the direct
// path plus N overlay paths. It models the paper's Section VI claim: with a
// coupled controller (LIA, or OLIA) the aggregate converges to a
// single-path TCP flow on the best path, so the sender never has to probe
// and pick the best overlay node, while uncoupled per-subflow controllers
// sum the subflows up to the endpoint NIC. The spec must set a Duration
// and no TransferBytes: the paper's MPTCP validation uses 1-minute iperf
// runs.
func RunMPTCP(rng *rand.Rand, paths []PathFunc, cfg MPTCPConfig, spec Spec) (MPTCPResult, error) {
	switch {
	case len(paths) == 0:
		return MPTCPResult{}, errors.New("tcpsim: mptcp needs at least one path")
	case spec.Duration <= 0:
		return MPTCPResult{}, errors.New("tcpsim: mptcp spec needs a Duration")
	case spec.TransferBytes > 0:
		return MPTCPResult{}, errors.New("tcpsim: mptcp spec sets TransferBytes; only a Duration is supported")
	case cfg.Coupling != LIA && cfg.Coupling != OLIA && cfg.Coupling != Uncoupled:
		return MPTCPResult{}, fmt.Errorf("tcpsim: mptcp Coupling %v is not LIA, OLIA or Uncoupled", cfg.Coupling)
	}
	flowCfg := cfg.Flow
	if cfg.Coupling != Uncoupled {
		flowCfg.Alg = Reno
	}
	flows := make([]*subflow, len(paths))
	for i, p := range paths {
		m := p(0)
		flows[i] = &subflow{flow: *newFlow(flowCfg), path: p, lastRTT: m.BaseRTT + m.QueueDelayRTT}
		if flows[i].lastRTT <= 0 {
			flows[i].lastRTT = time.Millisecond
		}
	}
	mss := int64(cfg.Flow.MSSBytes)
	steps := 0
	for {
		// Advance the subflow that is earliest in simulated time.
		f := flows[0]
		for _, g := range flows[1:] {
			if g.now < f.now {
				f = g
			}
		}
		if f.now >= spec.Duration {
			break
		}
		steps++
		if steps > 20_000_000 {
			return MPTCPResult{}, errors.New("tcpsim: mptcp connection did not terminate")
		}

		m := f.path(f.now)
		// All subflows exit through the same NIC: what the others are
		// using is unavailable to this one.
		if cfg.SharedAccessMbps > 0 {
			var others float64
			for _, g := range flows {
				if g != f {
					others += g.rateMbps
				}
			}
			avail := math.Min(m.AvailableMbps, cfg.SharedAccessMbps-others)
			if avail < 0.5 {
				avail = 0.5
			}
			m.AvailableMbps = avail
		}

		// Connection-level flow control: the shared receive window bounds
		// the total in-flight data across subflows.
		sendWnd := f.cwnd
		if cfg.ConnRwndPkts > 0 {
			var totalW float64
			for _, g := range flows {
				totalW += g.cwnd
			}
			if totalW > cfg.ConnRwndPkts {
				sendWnd = f.cwnd * cfg.ConnRwndPkts / totalW
			}
		}
		out := simulateRound(rng, m, f.cfg, sendWnd)
		f.bytes += int64(out.delivered) * mss
		f.lastRTT = out.rtt

		// Exponentially smoothed delivery rate for the NIC-sharing model.
		inst := out.delivered * float64(mss) * 8 / out.rtt.Seconds() / 1e6
		f.rateMbps = 0.8*f.rateMbps + 0.2*inst

		switch {
		case out.timeout:
			f.onTimeout()
			f.now += out.rtt + rtoFor(out.rtt)
			f.rateMbps *= 0.5
		case out.lost > 0:
			f.onLoss(f.now)
			f.now += out.rtt
		default:
			f.increase(flows, cfg.Coupling, out.rtt)
			f.now += out.rtt
		}
		if f.cwnd > cfg.Flow.MaxCwnd {
			f.cwnd = cfg.Flow.MaxCwnd
		}
	}

	res := MPTCPResult{SubflowMbps: make([]float64, len(flows))}
	var totalBytes int64
	for i, f := range flows {
		res.SubflowMbps[i] = float64(f.bytes) * 8 / spec.Duration.Seconds() / 1e6
		totalBytes += f.bytes
	}
	res.TotalMbps = float64(totalBytes) * 8 / spec.Duration.Seconds() / 1e6
	return res, nil
}

// simulateRound is the path half of one round for a window of sendPkts
// segments over metrics m: self-queueing, buffer-overflow drops and random
// loss. It is one step of a throwaway flow, so no subflow's window changes
// and no subflow takes the HyStart exit.
func simulateRound(rng *rand.Rand, m netsim.Metrics, cfg Config, sendPkts float64) roundOutcome {
	f := flow{cfg: cfg, cwnd: sendPkts, ssth: math.Inf(1)}
	return f.step(rng, m, 0, -1)
}

// increase applies one loss-free round's window growth: slow start up to
// ssthresh, then the coupling's congestion avoidance.
func (f *subflow) increase(flows []*subflow, coupling Coupling, rtt time.Duration) {
	if f.cwnd < f.ssth {
		f.cwnd = math.Min(f.cwnd*2, f.ssth)
		return
	}
	switch coupling {
	case LIA:
		f.cwnd += liaRoundIncrease(f, flows)
	case OLIA:
		f.cwnd += oliaRoundIncrease(f, flows)
	default: // Uncoupled
		if f.cfg.Alg == Cubic {
			f.cwnd = f.cubicTarget(rtt)
		} else {
			f.cwnd++
		}
	}
}

// liaRoundIncrease computes one round's window increase under the
// Linked-Increases Algorithm (RFC 6356): per ACK the window grows by
// min(alpha/cwnd_total, 1/cwnd_r) with
//
//	alpha = cwnd_total * max_r(cwnd_r/rtt_r^2) / (sum_r cwnd_r/rtt_r)^2,
//
// which caps the aggregate at a single-path TCP flow on the best path.
// Multiplying the per-ACK increase by the cwnd_r ACKs of one round gives
// min(alpha*cwnd_r/cwnd_total, 1).
func liaRoundIncrease(f *subflow, flows []*subflow) float64 {
	var total, sumRate, maxTerm float64
	for _, g := range flows {
		rtt := g.lastRTT.Seconds()
		if rtt <= 0 {
			rtt = 1e-3
		}
		total += g.cwnd
		sumRate += g.cwnd / rtt
		if term := g.cwnd / (rtt * rtt); term > maxTerm {
			maxTerm = term
		}
	}
	if total <= 0 || sumRate <= 0 {
		return 1
	}
	alpha := total * maxTerm / (sumRate * sumRate)
	return math.Min(alpha*f.cwnd/total, 1)
}

// oliaRoundIncrease computes one round's increase under OLIA (Khalili et
// al.): per ACK the window grows by (cwnd_r/rtt_r^2) / (sum_k cwnd_k/rtt_k)^2
// plus a load-balancing term beta_r/cwnd_r that shifts traffic toward the
// best paths. We implement the rate-matching first term exactly; the beta
// term only redistributes load among equally good paths and is omitted,
// which does not change the aggregate-throughput behaviour validated here.
func oliaRoundIncrease(f *subflow, flows []*subflow) float64 {
	var sumRate float64
	for _, g := range flows {
		rtt := g.lastRTT.Seconds()
		if rtt <= 0 {
			rtt = 1e-3
		}
		sumRate += g.cwnd / rtt
	}
	if sumRate <= 0 {
		return 1
	}
	rtt := f.lastRTT.Seconds()
	perAck := (f.cwnd / (rtt * rtt)) / (sumRate * sumRate)
	return math.Min(perAck*f.cwnd, 1)
}

// cubicTarget is an uncoupled CUBIC subflow's window after a loss-free
// round: the cubic's value one RTT on, at least one segment more than
// cwnd (where flow.grow takes a target inside that segment) and at most
// twice cwnd.
func (f *subflow) cubicTarget(rtt time.Duration) float64 {
	if !f.epochSet {
		f.startEpoch(f.now, f.cwnd)
	}
	// d*d*d has the bits of math.Pow(d, 3); see flow.grow.
	d := (f.now + rtt - f.epochStart).Seconds() - f.k
	target := cubicC*(d*d*d) + f.wMax
	if target < f.cwnd+1 {
		return f.cwnd + 1
	}
	if target > f.cwnd*2 {
		return f.cwnd * 2
	}
	return target
}
