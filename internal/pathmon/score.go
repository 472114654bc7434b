package pathmon

// Route scoring: per-route smoothed RTT + variance in the style of a TCP
// RTO estimator (and of Jonglez et al.'s delay-based routing metric),
// plus a smoothed throughput estimate fed by the optional bulk bursts —
// CRONets' headline metric is throughput gain, so ranking can follow
// either axis (or a normalized blend) via the pluggable Objective.
// Staleness inflation keeps both estimates honest: a route that stops
// producing samples cannot coast on an old good score, and a
// consecutive-failure threshold takes a dead route out of contention
// entirely.

import (
	"fmt"
	"math"
	"time"
)

// Objective selects the routing metric that orders the ranked table and
// feeds the hysteresis margin test. The zero value is ObjectiveLatency,
// the delay-based metric.
type Objective uint8

const (
	// ObjectiveLatency ranks by srtt + 4*rttvar with staleness inflation
	// — the interactive-traffic metric (Jonglez et al.).
	ObjectiveLatency Objective = iota
	// ObjectiveThroughput ranks by smoothed burst Mbps (staleness-decayed),
	// with the latency metric as a tiebreak — the bulk-transfer metric the
	// paper's ICR results are about. Routes with no burst data rank after
	// every route that has some; it needs Config.BurstDuration > 0 to be
	// meaningful.
	ObjectiveThroughput
	// ObjectiveComposite blends both axes, normalized across the current
	// table: each usable route scores (latency/bestLatency +
	// bestMbps/mbps)/2, so 1.0 is a route that is best on both axes.
	// With no burst data anywhere it degrades to the latency ranking.
	ObjectiveComposite
)

// String returns the objective's flag/wire name.
func (o Objective) String() string {
	switch o {
	case ObjectiveLatency:
		return "latency"
	case ObjectiveThroughput:
		return "throughput"
	case ObjectiveComposite:
		return "composite"
	default:
		return fmt.Sprintf("objective(%d)", uint8(o))
	}
}

// ParseObjective resolves a flag/wire name back to its Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "latency":
		return ObjectiveLatency, nil
	case "throughput":
		return ObjectiveThroughput, nil
	case "composite":
		return ObjectiveComposite, nil
	}
	return 0, fmt.Errorf("pathmon: unknown objective %q (want latency, throughput, or composite)", s)
}

// mbpsFloor is the smallest effective throughput the scorer
// distinguishes: a decayed estimate below it counts as "no data", which
// bounds the throughput objective's 1/Mbps term at noBurstScore.
const mbpsFloor = 1e-3

// noBurstScore is the throughput-objective base score of a route with no
// (or fully decayed) burst data — strictly worse than any route with a
// usable estimate, so data-less routes sort last among the usable and
// fall back to the latency tiebreak among themselves.
const noBurstScore = 1 / mbpsFloor

// tpTieWeight scales the latency metric's contribution to the
// throughput objective: ~1e-4 per second of latency score keeps it a
// pure tiebreak — it only orders routes whose bandwidth estimates are
// essentially equal, and can never outvote a real Mbps difference.
const tpTieWeight = 1e-4

// pathState is one candidate route's running estimate. All fields are
// guarded by the Monitor's mutex.
type pathState struct {
	route Route

	// srtt and rttvar are EWMA estimates of the route RTT and its mean
	// absolute deviation, in seconds.
	srtt, rttvar float64
	// samples counts successful probe rounds folded into the estimate.
	samples int
	// fails counts consecutive failed probe rounds; failThreshold of them
	// mark the route down until the next success.
	fails int
	// lastSample is when the estimate last absorbed a success.
	lastSample time.Time
	// smoothedMbps is the EWMA throughput estimate fed by the periodic
	// bursts (0 until the first burst completes).
	smoothedMbps float64
	// mbpsSamples counts bursts folded into smoothedMbps.
	mbpsSamples int
	// lastBurst is when the throughput estimate last absorbed a
	// completed burst — the age /debug/paths shows and the staleness
	// decay runs on.
	lastBurst time.Time
	// lastBurstRound is the round number the route last spent a burst
	// slot (scheduled, whether or not it completed) — the BurstEvery
	// cadence counter.
	lastBurstRound int64
}

// observe folds one successful RTT sample into the estimate.
func (s *pathState) observe(rtt time.Duration, alpha float64, now time.Time) {
	v := rtt.Seconds()
	if s.samples == 0 {
		s.srtt = v
		s.rttvar = v / 2
	} else {
		dev := math.Abs(v - s.srtt)
		s.rttvar = (1-alpha)*s.rttvar + alpha*dev
		s.srtt = (1-alpha)*s.srtt + alpha*v
	}
	s.samples++
	s.fails = 0
	s.lastSample = now
}

// observeBurst folds one completed throughput burst into the smoothed
// estimate.
func (s *pathState) observeBurst(mbps, alpha float64, now time.Time) {
	if s.mbpsSamples == 0 {
		s.smoothedMbps = mbps
	} else {
		s.smoothedMbps = (1-alpha)*s.smoothedMbps + alpha*mbps
	}
	s.mbpsSamples++
	s.lastBurst = now
}

// observeFailure records one failed probe round.
func (s *pathState) observeFailure() { s.fails++ }

// down reports whether the route is out of contention: never successfully
// probed, or failing consecutively past the threshold.
func (s *pathState) down() bool {
	return s.samples == 0 || s.fails >= failThreshold
}

// score is the route's latency metric in seconds — lower is better. The
// base is srtt + 4*rttvar (penalizing jittery routes like an RTO
// estimator); past staleAfter without a fresh sample the score inflates
// linearly with age, so a silent route decays out of first place instead
// of freezing its last good estimate.
func (s *pathState) score(now time.Time, staleAfter time.Duration) float64 {
	if s.down() {
		return math.Inf(1)
	}
	base := s.srtt + 4*s.rttvar
	if age := now.Sub(s.lastSample); age > staleAfter {
		base *= 1 + float64(age-staleAfter)/float64(staleAfter)
	}
	return base
}

// effMbps is the route's effective throughput estimate: the smoothed
// burst Mbps, decayed past staleAfter by the same linear-age factor the
// latency score inflates by — a route whose bursts stop completing (the
// link died, the relay rate-limits, the burst budget keeps failing)
// stops advertising its last good number and decays out of first place.
// 0 means no usable data.
func (s *pathState) effMbps(now time.Time, staleAfter time.Duration) float64 {
	if s.mbpsSamples == 0 {
		return 0
	}
	v := s.smoothedMbps
	if age := now.Sub(s.lastBurst); age > staleAfter {
		v /= 1 + float64(age-staleAfter)/float64(staleAfter)
	}
	if v < mbpsFloor {
		return 0
	}
	return v
}

// objectiveScores rewrites each row's Score (currently the latency
// metric) in place for the given objective, using the whole table for
// the composite normalization. Down rows keep +Inf under every
// objective.
func objectiveScores(obj Objective, rows []RouteStatus) {
	switch obj {
	case ObjectiveLatency:
		return
	case ObjectiveThroughput:
		for i := range rows {
			if rows[i].Down {
				continue
			}
			lat := rows[i].Score
			if rows[i].Mbps > 0 {
				rows[i].Score = 1/rows[i].Mbps + lat*tpTieWeight
			} else {
				rows[i].Score = noBurstScore + lat*tpTieWeight
			}
		}
	case ObjectiveComposite:
		bestLat, bestMbps := math.Inf(1), 0.0
		for i := range rows {
			if rows[i].Down {
				continue
			}
			if rows[i].Score < bestLat {
				bestLat = rows[i].Score
			}
			if rows[i].Mbps > bestMbps {
				bestMbps = rows[i].Mbps
			}
		}
		for i := range rows {
			if rows[i].Down {
				continue
			}
			latNorm := 1.0
			if bestLat > 0 && !math.IsInf(bestLat, 1) {
				latNorm = rows[i].Score / bestLat
			}
			// No burst data anywhere: tpNorm is 1 for every route and the
			// composite degrades to the (normalized) latency ranking.
			tpNorm := 1.0
			if bestMbps > 0 {
				mbps := rows[i].Mbps
				if mbps < mbpsFloor {
					mbps = mbpsFloor
				}
				tpNorm = bestMbps / mbps
			}
			rows[i].Score = (latNorm + tpNorm) / 2
		}
	}
}

// RouteStatus is one row of the ranked route table.
type RouteStatus struct {
	Route Route
	// Score is the active objective's routing metric — lower is better,
	// +Inf when down. Latency: seconds. Throughput: 1/Mbps plus a latency
	// epsilon. Composite: a normalized blend with 1.0 = best on both axes.
	Score float64
	// SRTT and RTTVar are the smoothed RTT estimate and its deviation.
	SRTT, RTTVar time.Duration
	// Mbps is the smoothed throughput-burst estimate after staleness
	// decay (0 if no bursts have completed, or the estimate fully aged
	// out).
	Mbps float64
	// LastBurst is when the throughput estimate last absorbed a completed
	// burst (zero if never).
	LastBurst time.Time
	// Samples is how many successful probe rounds the estimate has seen.
	Samples int
	// Fails is the current consecutive-failure streak.
	Fails int
	// Down reports the route is out of contention.
	Down bool
	// Best marks the route currently carrying new connections.
	Best bool
	// LastSample is when the route last answered a probe.
	LastSample time.Time
}
