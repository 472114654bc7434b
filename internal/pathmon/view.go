package pathmon

// Objective views: one Monitor, several rankings. Every ranking is a
// View: a handle over the monitor's shared probe table that ranks it
// under its own objective with its own hysteresis state — so a bulk
// listener (throughput objective) and an interactive listener (latency
// objective) share one probe budget, one burst cadence, and one event
// stream, yet each commits to its own best route. A View is a Ranker
// (Best/Ranked/Subscribe), and it serves its own /debug/paths table and
// gauges.

import (
	"math"

	"cronets/internal/obs"
)

// Ranker is a route ranking to follow: what the gateway dials by and
// the warm pool fills from. A *View is one (a *Monitor too, as its
// latency view); tests substitute scripted rankings to exercise the
// dial fallback ladder and the pool's filler without sockets.
type Ranker interface {
	// Best returns the hysteresis-committed best route (false before the
	// first usable round).
	Best() (Route, bool)
	// Ranked returns the current route table sorted best-first.
	Ranked() []RouteStatus
	// Subscribe returns a coalesced ranking-change wakeup channel and an
	// unsubscribe func.
	Subscribe() (<-chan struct{}, func())
}

// View is one objective's independently damped ranking over a Monitor's
// probe data.
type View struct {
	m   *Monitor
	obj Objective

	// The selection state below is guarded by m.mu.
	best   Route
	chosen bool // a best route has been selected
	// challenger/streak implement switch hysteresis.
	challenger    Route
	streak        int
	lastRankFirst Route
}

// View returns the monitor's ranking under obj, creating it on first
// use; every call for one objective returns the same *View. The latency
// view exists from New on. A view created mid-flight starts unselected
// and adopts its initial best on the next integrated round; creating it
// before Start avoids the gap. A view created after a Pin and before the
// next integrated round starts on the pinned route. Only bursts feed the
// throughput axis: on a monitor with BurstDuration 0, a throughput view
// scores every route alike and never switches, and a composite view ranks
// by latency.
func (m *Monitor) View(obj Objective) *View {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.views {
		if v.obj == obj {
			return v
		}
	}
	v := &View{m: m, obj: obj}
	if m.pinned {
		v.best, v.chosen = m.pin, true
	}
	m.views = append(m.views, v)
	v.instrument(m.cfg.Obs)
	return v
}

// instrument registers the view's two gauges, labelled with its
// objective.
func (v *View) instrument(reg *obs.Registry) {
	reg.GaugeFunc(obs.Label("cronets_pathmon_best_is_direct", "objective", v.obj.String()),
		"1 when the view's committed best route is direct, 0 when it is a relay route or none is selected yet.",
		func() int64 {
			if best, ok := v.Best(); ok && best.IsDirect() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(obs.Label("cronets_pathmon_route_mbps", "objective", v.obj.String()),
		"Smoothed, staleness-decayed throughput estimate of the view's committed best route, in whole Mbps (0 before any completed burst).",
		func() int64 {
			m := v.m
			m.mu.Lock()
			defer m.mu.Unlock()
			st := m.states[v.best]
			if !v.chosen || st == nil {
				return 0
			}
			return int64(math.Round(st.effMbps(m.now(), m.burstStaleAfterLocked())))
		})
}

// Best returns the view's current best route under its objective and
// whether one has been selected yet (false until the first round with a
// usable result).
func (v *View) Best() (Route, bool) {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	return v.best, v.chosen
}

// Ranked returns the route table sorted best-first under the view's
// objective. Down routes sort last (score +Inf).
func (v *View) Ranked() []RouteStatus {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	return v.m.rankForLocked(v, v.m.now())
}

// Subscribe registers for the monitor's ranking-change wakeups (all
// views share the probe rounds, so they share the notification stream).
func (v *View) Subscribe() (<-chan struct{}, func()) {
	return v.m.Subscribe()
}
