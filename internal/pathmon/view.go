package pathmon

// Objective views: one Monitor, several rankings. A View is a cheap
// handle over the monitor's shared probe table that ranks it under its
// own objective with its own hysteresis state — so a bulk listener
// (throughput objective) and an interactive listener (latency objective)
// share one probe budget, one burst cadence, and one event stream, yet
// each commits to its own best route. A View satisfies the same
// Best/Ranked/Subscribe contract as the Monitor itself (the gateway's
// Ranker seam), so a gateway cannot tell which it was given.

// View is one objective's independently damped ranking over a Monitor's
// probe data.
type View struct {
	m *Monitor
	v *rankView
}

// View returns the monitor's ranking under obj, creating it on first
// use. The view for the monitor's configured objective is the monitor's
// own (Monitor.Best and a View of the same objective always agree).
// A view created mid-flight starts unselected and adopts its initial
// best on the next integrated round; creating it before Start avoids
// the gap. Repeated calls for one objective share selection state.
// Only bursts feed the throughput axis: on a monitor with BurstDuration
// 0, a throughput view scores every route alike and never switches
// (New refuses that objective as the monitor's own), and a composite
// view ranks by latency.
func (m *Monitor) View(obj Objective) *View {
	m.mu.Lock()
	defer m.mu.Unlock()
	rv, ok := m.viewByObj[obj]
	if !ok {
		rv = &rankView{obj: obj}
		m.viewByObj[obj] = rv
		m.views = append(m.views, rv)
	}
	return &View{m: m, v: rv}
}

// Best returns the view's current best route under its objective and
// whether one has been selected yet.
func (vw *View) Best() (Route, bool) {
	vw.m.mu.Lock()
	defer vw.m.mu.Unlock()
	return vw.v.best, vw.v.chosen
}

// Ranked returns the route table sorted best-first under the view's
// objective. Down routes sort last (score +Inf).
func (vw *View) Ranked() []RouteStatus {
	vw.m.mu.Lock()
	defer vw.m.mu.Unlock()
	return vw.m.rankForLocked(vw.v, vw.m.now())
}

// Subscribe registers for the monitor's ranking-change wakeups (all
// views share the probe rounds, so they share the notification stream).
func (vw *View) Subscribe() (<-chan struct{}, func()) {
	return vw.m.Subscribe()
}
