package tcpsim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// RunSplitChain simulates a multi-hop split-TCP transfer: the connection is
// terminated and re-originated at every relay, giving n segments each with
// its own congestion-control loop, coupled through finite relay buffers.
// The result reports end-to-end goodput (bytes delivered to the receiver),
// combined retransmission statistics, and the sum of segment RTTs as the
// end-to-end latency estimate. Two segments are RunSplit; more answer the
// paper's Section VII-B question (can multi-hop overlay paths with several
// TCP splits help further?).
func RunSplitChain(rng *rand.Rand, segments []PathFunc, cfg SplitConfig, spec Spec) (Result, error) {
	if len(segments) == 0 {
		return Result{}, errors.New("tcpsim: split chain needs at least one segment")
	}
	if spec.Duration <= 0 && spec.TransferBytes <= 0 {
		return Result{}, ErrSpec
	}
	if len(segments) == 1 {
		return Run(rng, segments[0], cfg.Flow, spec)
	}
	if cfg.RelayBufferBytes <= 0 {
		cfg.RelayBufferBytes = 4 << 20
	}
	n := len(segments)
	mss := int64(cfg.Flow.MSSBytes)

	flows := make([]*flow, n)
	times := make([]time.Duration, n)
	for i := range flows {
		flows[i] = newFlow(cfg.Flow)
	}
	// buffers[i] holds bytes relayed from segment i awaiting segment i+1.
	buffers := make([]int64, n-1)
	var (
		srcSent   int64
		delivered int64
		rounds    int
	)
	// idleBump advances an idle segment's clock to the earliest other
	// segment ahead of it (or by a millisecond when it already leads).
	idleBump := func(i int) {
		var ahead time.Duration = -1
		for j, t := range times {
			if j != i && t > times[i] && (ahead < 0 || t < ahead) {
				ahead = t
			}
		}
		if ahead > times[i] {
			times[i] = ahead
		} else {
			times[i] += time.Millisecond
		}
	}
	for {
		// Advance the segment earliest in simulated time; ties go to the
		// upstream segment so the pipeline fills before it drains. Once
		// the earliest clock reaches Duration, every clock has.
		i := 0
		for j := 1; j < n; j++ {
			if times[j] < times[i] {
				i = j
			}
		}
		if spec.TransferBytes > 0 && delivered >= spec.TransferBytes ||
			spec.Duration > 0 && times[i] >= spec.Duration {
			break
		}
		rounds++
		if rounds > 20_000_000 {
			return Result{}, errors.New("tcpsim: split chain did not terminate")
		}
		limit := math.Inf(1)
		if i > 0 {
			// Middle/last segments draw from the upstream buffer.
			avail := math.Floor(float64(buffers[i-1]) / float64(mss))
			if avail < 1 {
				idleBump(i)
				continue
			}
			limit = avail
		}
		if i < n-1 {
			// All but the last segment push into a downstream buffer.
			free := math.Floor(float64(cfg.RelayBufferBytes-buffers[i]) / float64(mss))
			if free < 1 {
				idleBump(i)
				continue
			}
			// The builtin min compiles inline where math.Min is a call;
			// both order -0 below +0 and pass NaN through.
			limit = min(limit, free)
		}
		if i == 0 && spec.TransferBytes > 0 {
			remaining := math.Ceil(float64(spec.TransferBytes-srcSent) / float64(mss))
			if remaining <= 0 {
				idleBump(i)
				continue
			}
			limit = min(limit, remaining)
		}
		lim := -1.0
		if !math.IsInf(limit, 1) {
			lim = limit
		}
		out := flows[i].step(rng, segments[i](times[i]), times[i], lim)
		got := int64(out.delivered) * mss
		if i > 0 {
			buffers[i-1] -= got
			if buffers[i-1] < 0 {
				buffers[i-1] = 0
			}
		} else {
			srcSent += got
		}
		if i < n-1 {
			buffers[i] += got
		} else {
			delivered += got
		}
		times[i] += out.rtt
		if out.timeout {
			times[i] += rtoFor(out.rtt)
		}
	}
	elapsed := times[n-1]
	if spec.Duration > 0 && elapsed > spec.Duration {
		elapsed = spec.Duration
	}
	res := Result{Bytes: delivered, Elapsed: elapsed, Rounds: rounds}
	if elapsed > 0 {
		res.ThroughputMbps = float64(delivered) * 8 / elapsed.Seconds() / 1e6
	}
	var sent, lost, rttSum float64
	for _, f := range flows {
		sent += f.sentPkts
		lost += f.lostPkts
		res.Timeouts += f.timeouts
		if f.rttWeight > 0 {
			rttSum += f.rttSum / f.rttWeight
		}
	}
	if sent > 0 {
		res.RetransRate = lost / sent
	}
	res.AvgRTT = time.Duration(rttSum * float64(time.Second))
	return res, nil
}
