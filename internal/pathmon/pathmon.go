// Package pathmon is the overlay control plane's measurement half: a
// background prober that, for one (client, destination) pair and a fleet
// of candidate relays, periodically measures the direct path and each
// overlay route with internal/measure echo probes plus cadenced
// throughput bursts, maintains per-route EWMA/variance scores with
// staleness decay, and publishes a ranked route table. Switching is damped
// by hysteresis: a challenger must beat the incumbent by a configurable
// margin for K consecutive rounds before traffic moves, so transient RTT
// wobble cannot flap the overlay — the CRONets provisioning service's
// "which cloud path beats the Internet right now?" loop (PAPER.md §3).
//
// Ranking is objective-driven: the delay metric (ObjectiveLatency), the
// smoothed burst throughput (ObjectiveThroughput — the paper's headline
// axis), or a normalized blend (ObjectiveComposite). Every ranking is a
// View: View(obj) returns an independently hysteresis-damped ranking
// over the same probe data, so a bulk listener and an interactive
// listener share one probe budget.
//
// Routes are uniform N-hop hop lists (Route): the direct path is the
// zero-hop route, a single relay is the one-hop route, and deeper chains
// are enumerated by a beam search over the ranked single-hop relays
// (MaxHops bounds the depth) — one representation, one dial seam
// (chain.Dial), one scoring table.
package pathmon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"cronets/internal/chain"
	"cronets/internal/measure"
	"cronets/internal/obs"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// Config parameterizes a Monitor. Dest is required; everything else has
// serviceable defaults.
type Config struct {
	// Dest is the destination's probe endpoint (a measure.Server), as
	// reachable from the relays — the address sent in CONNECT.
	Dest string
	// DirectAddr is the client's direct route to Dest. It defaults to
	// Dest; tests and emulations point it at a netem proxy standing in
	// for the wide-area direct path.
	DirectAddr string
	// Fleet lists candidate relay CONNECT endpoints, each a distinct
	// host:port; New rejects any other entry.
	Fleet []string
	// Interval is the probe round period (default 5 s).
	Interval time.Duration
	// ProbeTimeout bounds each route's dial + RTT probes per round
	// (default Interval/2, capped at 2 s minimum 100 ms) so one dead
	// relay cannot stall a round. Throughput bursts do NOT share this
	// budget — each burst gets its own deadline of BurstDuration plus
	// one ProbeTimeout of setup headroom.
	ProbeTimeout time.Duration
	// ProbeCount is how many echo probes each route gets per round
	// (default 4).
	ProbeCount int
	// Alpha is the EWMA weight of a new sample (default 0.3), shared by
	// the RTT and throughput estimators.
	Alpha float64
	// BurstDuration, when positive, enables periodic throughput bursts:
	// a timed sink-mode upload on a fresh connection whose result feeds
	// each route's smoothed Mbps estimate (and its rank in throughput and
	// composite views).
	BurstDuration time.Duration
	// BurstEvery is how many rounds elapse between one route's bursts
	// (default 1 — every round, subject to maxBurstsPerRound).
	BurstEvery int
	// SwitchMargin is the fraction by which a challenger's score must
	// beat the incumbent's to count toward a switch (default 0.1).
	SwitchMargin float64
	// SwitchRounds is how many consecutive qualifying rounds the same
	// challenger needs before traffic switches (default 3).
	SwitchRounds int
	// MaxHops caps overlay route depth. 1 (the default) probes only the
	// direct path and single-relay routes; values >= 2 additionally
	// enumerate multi-hop chains up to that depth with a beam search
	// over the ranked single-hop relays, scored in the same table under
	// the same hysteresis.
	MaxHops int
	// ChainCandidates bounds chain enumeration when MaxHops >= 2: the
	// top-M usable single-hop relays by score form the extension set at
	// every beam depth, giving at most M*(M-1) two-hop chains (and
	// M*(M-1)*(M-2) three-hop chains, and so on) per round (default 3).
	// The committed best (or current challenger) chain is always kept in
	// the probe set even after it falls out of candidacy, so hysteresis
	// — not enumeration churn — decides when to leave it.
	ChainCandidates int
	// ChainPruneFactor prunes hopeless chains before they cost probes:
	// a candidate whose summed single-hop srtts exceed
	// ChainPruneFactor x the best current route score is skipped
	// (default 3). The sum of the access legs is a
	// triangle-inequality-flavored floor on what the chain must beat;
	// the generous slack matters because congestion and routing policy
	// violate the geometric triangle inequality routinely — that
	// violation is exactly the win CRONets chases — so only grossly
	// hopeless candidates are dropped. Negative disables pruning.
	ChainPruneFactor float64
	// Dialer overrides the probe dialer (tests).
	Dialer relay.Dialer
	// Obs receives probe metrics and path events (nil disables
	// instrumentation).
	Obs *obs.Registry
}

const (
	// failThreshold is how many consecutive failed rounds take a route
	// out of contention. The incumbent going down switches immediately,
	// ignoring hysteresis.
	failThreshold = 2
	// staleIntervals is the estimate age, in probe Intervals, past which
	// a route's latency score inflates. Throughput estimates decay on the
	// same curve, scaled by the burst cadence (bursts are naturally
	// BurstEvery or more rounds apart).
	staleIntervals = 3
	// maxBurstsPerRound caps how many routes burst in one round. Due
	// routes are served round-robin, so with N routes every route still
	// bursts within ceil(N/maxBurstsPerRound) x BurstEvery rounds — a
	// round never pays more than two burst windows of extra traffic,
	// however big the fleet.
	maxBurstsPerRound = 2
)

// Monitor continuously probes the candidate routes, and each of its
// Views publishes a ranked table and a hysteresis-damped best route
// under its objective.
type Monitor struct {
	cfg Config
	// now is the clock, injectable by tests.
	now func() time.Time

	probes *obs.Counter
	// failDial/failReject/failTimeout split probe failures by reason:
	// an unreachable socket, a relay that answered but refused the
	// CONNECT (up but overloaded, ACL, dead upstream), and a deadline
	// expiry — three different kinds of path-down evidence.
	failDial    *obs.Counter
	failReject  *obs.Counter
	failTimeout *obs.Counter
	bursts      *obs.Counter
	burstFails  *obs.Counter
	switches    *obs.Counter
	rounds      *obs.Counter
	rttHist     *obs.Histogram
	scope       *obs.Scope

	mu     sync.Mutex
	order  []Route        // stable probe order: direct, then fleet
	static map[Route]bool // membership set of order
	chains []Route        // dynamic probe set (beam candidates + pins), rebuilt each round
	states map[Route]*pathState
	// views holds every ranking, in creation order (the latency view
	// first).
	views []*View
	// pin is the route Pin forced, and pinned whether Pin ran since the
	// last integrated round: View starts a view created in that window on
	// pin, as Pin would have had the view existed.
	pin    Route
	pinned bool
	// burstCursor round-robins the per-round burst slots across routes.
	burstCursor int
	roundsDone  int64
	// subs are ranking-change subscribers (connection pools, dashboards):
	// each gets a coalesced wakeup after every integrated round or pin.
	subs map[chan struct{}]struct{}

	startOnce sync.Once
	// runCtx is the monitor-lifetime context, cancelled by Close: the
	// loop and ProbeRound read its Done as the shutdown signal, and
	// every probe and burst the background loop launches derives from
	// it, so Close reaches in-flight dials immediately instead of
	// waiting out a full ProbeTimeout.
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// New creates a Monitor. Call Start to begin probing; Close to stop.
func New(cfg Config) (*Monitor, error) {
	if cfg.Dest == "" {
		return nil, errors.New("pathmon: Config.Dest is required")
	}
	if err := checkFleet(cfg.Fleet); err != nil {
		return nil, err
	}
	if cfg.DirectAddr == "" {
		cfg.DirectAddr = cfg.Dest
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.Interval / 2
		if cfg.ProbeTimeout > 2*time.Second {
			cfg.ProbeTimeout = 2 * time.Second
		}
		if cfg.ProbeTimeout < 100*time.Millisecond {
			cfg.ProbeTimeout = 100 * time.Millisecond
		}
	}
	if cfg.ProbeCount <= 0 {
		cfg.ProbeCount = 4
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.BurstEvery <= 0 {
		cfg.BurstEvery = 1
	}
	if cfg.SwitchMargin <= 0 {
		cfg.SwitchMargin = 0.1
	}
	if cfg.SwitchRounds <= 0 {
		cfg.SwitchRounds = 3
	}
	if cfg.MaxHops < 1 {
		cfg.MaxHops = 1
	}
	if cfg.ChainCandidates <= 0 {
		cfg.ChainCandidates = 3
	}
	if cfg.ChainPruneFactor == 0 {
		cfg.ChainPruneFactor = 3
	} else if cfg.ChainPruneFactor < 0 {
		cfg.ChainPruneFactor = 0
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	runCtx, runCancel := context.WithCancel(context.Background())
	m := &Monitor{
		cfg:       cfg,
		now:       time.Now,
		states:    make(map[Route]*pathState),
		static:    make(map[Route]bool),
		runCtx:    runCtx,
		runCancel: runCancel,
		subs:      make(map[chan struct{}]struct{}),
	}
	m.order = append(m.order, Direct)
	for _, r := range cfg.Fleet {
		m.order = append(m.order, MakeRoute(r))
	}
	for _, p := range m.order {
		m.static[p] = true
		m.states[p] = &pathState{route: p}
	}
	m.instrument(cfg.Obs)
	m.View(ObjectiveLatency)
	return m, nil
}

// checkFleet rejects a fleet entry that would not key a one-hop route of
// its own: one that is not host:port, contains the route-key separator, or
// repeats an earlier entry (it would be probed and ranked twice).
func checkFleet(fleet []string) error {
	seen := make(map[string]bool, len(fleet))
	for _, r := range fleet {
		if _, _, err := net.SplitHostPort(r); err != nil {
			return fmt.Errorf("pathmon: fleet entry %q: %w", r, err)
		}
		if strings.Contains(r, hopSep) {
			return fmt.Errorf("pathmon: fleet entry %q contains the route-key separator 0x1f", r)
		}
		if seen[r] {
			return fmt.Errorf("pathmon: fleet entry %q repeats an earlier entry", r)
		}
		seen[r] = true
	}
	return nil
}

func (m *Monitor) instrument(reg *obs.Registry) {
	m.probes = reg.Counter("cronets_pathmon_probes_total",
		"Per-path probe attempts across all rounds.")
	const failHelp = "Probe attempts that failed, by reason: dial = unreachable socket, " +
		"reject = relay up but CONNECT refused (overload, ACL, dead upstream), " +
		"timeout = deadline expiry."
	m.failDial = reg.Counter(obs.Label("cronets_pathmon_probe_failures_total", "reason", "dial"), failHelp)
	m.failReject = reg.Counter(obs.Label("cronets_pathmon_probe_failures_total", "reason", "reject"), failHelp)
	m.failTimeout = reg.Counter(obs.Label("cronets_pathmon_probe_failures_total", "reason", "timeout"), failHelp)
	m.bursts = reg.Counter("cronets_pathmon_bursts_total",
		"Throughput bursts attempted across all routes.")
	m.burstFails = reg.Counter("cronets_pathmon_burst_failures_total",
		"Throughput bursts that failed or were truncated short of the configured window.")
	m.switches = reg.Counter("cronets_pathmon_switches_total",
		"Best-path switches committed after hysteresis, across all objective views.")
	m.rounds = reg.Counter("cronets_pathmon_rounds_total",
		"Probe rounds completed.")
	m.rttHist = reg.Histogram("cronets_pathmon_rtt_seconds",
		"Probed RTT across all candidate paths.", obs.LatencyBuckets)
	m.scope = reg.Scope("pathmon")
}

// Start launches the background probe loop: one round immediately, then
// one per Interval. Repeated calls are no-ops.
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		m.wg.Add(1)
		go m.loop()
	})
}

// Close stops the probe loop, cancels in-flight probes and bursts, and
// waits for them to unwind — it returns in milliseconds even with a
// blackholed dial mid-flight, not after a ProbeTimeout.
func (m *Monitor) Close() error {
	m.runCancel()
	m.wg.Wait()
	return nil
}

func (m *Monitor) loop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	m.ProbeRound(m.runCtx)
	for {
		select {
		case <-m.runCtx.Done():
			return
		case <-t.C:
			m.ProbeRound(m.runCtx)
		}
	}
}

// probeResult is one route's outcome in a round.
type probeResult struct {
	route Route
	rtt   time.Duration // round average on success
	err   error
	// burst reports a throughput burst ran this round (mbps/burstErr
	// carry its outcome).
	burst    bool
	mbps     float64
	burstErr error
}

// ProbeRound measures every candidate route once, concurrently, and folds
// the results into the ranked table. Each route's dial + RTT probes share
// one ProbeTimeout budget, so the round completes within roughly one
// timeout even if every relay is dead; the routes due a throughput burst
// this round (at most maxBurstsPerRound, round-robined on the BurstEvery
// cadence) additionally run one burst on its own time budget. With
// MaxHops >= 2 the round also probes the current multi-hop chain
// candidates (enumerated from the previous round's single-hop estimates
// — chains appear from the second round). Exported for on-demand probing
// (tests, warm-up before serving).
func (m *Monitor) ProbeRound(ctx context.Context) {
	m.mu.Lock()
	routes := make([]Route, 0, len(m.order)+len(m.chains))
	routes = append(routes, m.order...)
	routes = append(routes, m.chains...)
	burstDue := m.scheduleBurstsLocked(routes)
	m.mu.Unlock()
	results := make([]probeResult, len(routes))
	var wg sync.WaitGroup
	for i, p := range routes {
		wg.Add(1)
		go func(i int, p Route) {
			defer wg.Done()
			results[i] = m.probeRoute(ctx, p, burstDue[p])
		}(i, p)
	}
	wg.Wait()
	select {
	case <-m.runCtx.Done():
		// Shut down between probe and integrate: drop the round.
		return
	default:
	}
	m.integrate(results, m.now())
}

// scheduleBurstsLocked picks the routes that burst this round: every
// route whose last burst slot is BurstEvery or more rounds old is due,
// and up to maxBurstsPerRound of them are served, round-robin from a
// rotating cursor so a large probe set shares the burst budget fairly.
// A route's slot is consumed at scheduling time — if its RTT probe then
// fails, the burst is forfeit until the route is due again. Caller holds
// m.mu.
func (m *Monitor) scheduleBurstsLocked(routes []Route) map[Route]bool {
	if m.cfg.BurstDuration <= 0 || len(routes) == 0 {
		return nil
	}
	round := m.roundsDone + 1
	due := make(map[Route]bool, maxBurstsPerRound)
	n := len(routes)
	start := m.burstCursor % n
	for k := 0; k < n && len(due) < maxBurstsPerRound; k++ {
		i := (start + k) % n
		st := m.states[routes[i]]
		if st == nil || due[routes[i]] {
			continue
		}
		if round-st.lastBurstRound < int64(m.cfg.BurstEvery) {
			continue
		}
		st.lastBurstRound = round
		due[routes[i]] = true
		m.burstCursor = i + 1
	}
	return due
}

// staleAfter is the estimate age past which a route's latency score
// inflates.
func (m *Monitor) staleAfter() time.Duration {
	return staleIntervals * m.cfg.Interval
}

// burstStaleAfterLocked scales the staleness horizon to the burst
// cadence: with N routes sharing maxBurstsPerRound slots every
// BurstEvery rounds, consecutive bursts on one route are naturally
// max(BurstEvery, ceil(N/maxBurstsPerRound)) rounds apart — the
// throughput estimate must not decay between two healthy bursts. Caller
// holds m.mu.
func (m *Monitor) burstStaleAfterLocked() time.Duration {
	n := len(m.order) + len(m.chains)
	cadence := (n + maxBurstsPerRound - 1) / maxBurstsPerRound
	if m.cfg.BurstEvery > cadence {
		cadence = m.cfg.BurstEvery
	}
	if cadence < 1 {
		cadence = 1
	}
	return m.staleAfter() * time.Duration(cadence)
}

// dialRoute opens one measurement connection over a route — the same
// seam for every depth: the zero-hop route is a plain direct dial, any
// deeper route is a chain dial (one CONNECT per hop; one hop is exactly
// the classic single-relay path). The context's deadline governs every
// leg.
func (m *Monitor) dialRoute(ctx context.Context, r Route) (net.Conn, error) {
	hops := r.Hops()
	if len(hops) == 0 {
		return m.cfg.Dialer.DialContext(ctx, "tcp", m.cfg.DirectAddr)
	}
	return chain.Dial(ctx, hops, m.cfg.Dest, chain.Options{Dialer: m.cfg.Dialer})
}

// probeRoute runs one route's round: dial + RTT echo probes under the
// ProbeTimeout budget, then — when the route holds a burst slot this
// round — one throughput burst on its own budget.
func (m *Monitor) probeRoute(ctx context.Context, p Route, doBurst bool) probeResult {
	m.probes.Inc()
	res := probeResult{route: p}

	rttCtx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
	conn, err := m.dialRoute(rttCtx, p)
	if err != nil {
		cancel()
		res.err = fmt.Errorf("dial: %w", err)
		return res
	}
	stats, err := measure.ProbeRTTContext(rttCtx, conn, m.cfg.ProbeCount, m.rttHist)
	_ = conn.Close()
	cancel()
	if err != nil {
		res.err = fmt.Errorf("probe: %w", err)
		return res
	}
	res.rtt = stats.Avg
	if doBurst {
		res.burst = true
		res.mbps, res.burstErr = m.burst(ctx, p)
	}
	return res
}

// burst runs one throughput burst for a route, on a fresh connection
// (echo-mode state must not leak into sink mode) and on its own time
// budget: the full BurstDuration measurement window plus one
// ProbeTimeout of setup headroom for the dial, the per-hop CONNECT
// preambles, and the sink preamble. It must never inherit the residue of
// the RTT probes' budget — that silently shortened the measured window
// after a slow probe and systematically underestimated Mbps. A burst
// whose window still comes up short is an error (a failure counted in
// cronets_pathmon_burst_failures_total), not a sample.
func (m *Monitor) burst(ctx context.Context, p Route) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.BurstDuration+m.cfg.ProbeTimeout)
	defer cancel()
	conn, err := m.dialRoute(ctx, p)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	res, err := measure.Throughput(ctx, conn, m.cfg.BurstDuration)
	if err != nil {
		return 0, err
	}
	return res.Mbps, nil
}

// integrate folds one round of probe results into the table and applies
// the ranking + hysteresis rules to every objective view. Split from the
// socket layer so tests can feed synthetic series.
func (m *Monitor) integrate(results []probeResult, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.notifyLocked()
	defer m.rebuildChainsLocked(now)
	m.roundsDone++
	m.rounds.Inc()
	m.pinned = false

	for _, r := range results {
		st := m.states[r.route]
		if st == nil {
			continue
		}
		if r.err != nil {
			st.observeFailure()
			reason := failReason(r.err)
			m.failCounter(reason).Inc()
			m.scope.Event(obs.EventProbe, fmt.Sprintf("%s fail (%s): %v", r.route, reason, r.err))
			continue
		}
		st.observe(r.rtt, m.cfg.Alpha, now)
		if r.burst {
			m.bursts.Inc()
			if r.burstErr != nil {
				m.burstFails.Inc()
				m.scope.Event(obs.EventBurst, fmt.Sprintf("%s fail: %v", r.route, r.burstErr))
			} else {
				st.observeBurst(r.mbps, m.cfg.Alpha, now)
				m.scope.Event(obs.EventBurst,
					fmt.Sprintf("%s %.1f Mbps (smoothed %.1f)", r.route, r.mbps, st.smoothedMbps))
			}
		}
	}

	for _, v := range m.views {
		m.applyRankingLocked(v, now)
	}
}

// applyRankingLocked runs one view's ranking + hysteresis over the
// freshly folded table. Caller holds m.mu.
func (m *Monitor) applyRankingLocked(v *View, now time.Time) {
	ranked := m.rankForLocked(v, now)
	if len(ranked) == 0 || ranked[0].Down {
		// Nothing usable: keep the incumbent (connections may still work
		// even if probes fail — don't thrash on a probe outage).
		return
	}
	leader := ranked[0].Route
	if leader != v.lastRankFirst {
		v.lastRankFirst = leader
		m.scope.Event(obs.EventRankChange,
			fmt.Sprintf("%sleader %s score %.4f", viewTag(v), leader, ranked[0].Score))
	}

	if !v.chosen {
		// First usable round: adopt the leader outright; this initial
		// selection is not counted as a switch.
		v.best = leader
		v.chosen = true
		m.scope.Event(obs.EventPathSwitch, fmt.Sprintf("%sinitial best %s", viewTag(v), leader))
		return
	}

	incumbent := m.states[v.best]
	if incumbent == nil || incumbent.down() {
		// Dead incumbent: switch immediately, hysteresis is for flap
		// damping, not for staying on a black hole.
		if leader != v.best {
			m.commitSwitchLocked(v, leader, "incumbent down")
		}
		return
	}
	if leader == v.best {
		v.challenger, v.streak = Route{}, 0
		return
	}
	incScore, ok := rowScore(ranked, v.best)
	if !ok || ranked[0].Score >= incScore*(1-m.cfg.SwitchMargin) {
		// Leads, but not by enough margin to count toward a switch.
		v.challenger, v.streak = Route{}, 0
		return
	}
	if leader == v.challenger {
		v.streak++
	} else {
		v.challenger, v.streak = leader, 1
	}
	if v.streak >= m.cfg.SwitchRounds {
		m.commitSwitchLocked(v, leader, fmt.Sprintf("beat incumbent by >%.0f%% for %d rounds",
			m.cfg.SwitchMargin*100, v.streak))
	}
}

// rowScore finds a route's score in a ranked table.
func rowScore(rows []RouteStatus, r Route) (float64, bool) {
	for i := range rows {
		if rows[i].Route == r {
			return rows[i].Score, true
		}
	}
	return 0, false
}

// viewTag prefixes a view's events with its objective, so one event
// stream stays readable when a latency view and a throughput view
// disagree. The latency view, which every monitor has, stays untagged,
// so a node that ranks only by latency logs no tags.
func viewTag(v *View) string {
	if v.obj == ObjectiveLatency {
		return ""
	}
	return "[" + v.obj.String() + "] "
}

// failReason classifies a probe failure for the reason-split failure
// counter: a relay that answered and refused ("reject" — it is up but
// won't carry the flow: overload, ACL, dead upstream) is different
// evidence than a deadline expiry ("timeout") or an unreachable socket
// ("dial"). The reject check comes first: a refusal that arrives just as
// the budget expires is still a refusal.
func failReason(err error) string {
	switch {
	case errors.Is(err, relay.ErrRefused):
		return "reject"
	case pipe.IsTimeout(err):
		return "timeout"
	default:
		return "dial"
	}
}

// failCounter maps a failure reason to its labeled counter.
func (m *Monitor) failCounter(reason string) *obs.Counter {
	switch reason {
	case "reject":
		return m.failReject
	case "timeout":
		return m.failTimeout
	default:
		return m.failDial
	}
}

// rebuildChainsLocked recomputes the multi-hop candidate set from the
// round's single-hop estimates with a beam search over depth <= MaxHops:
// the top-ChainCandidates usable relays seed depth 1, and each deeper
// level extends every surviving candidate by one ranked relay it does
// not already cross. A candidate whose summed single-hop srtts already
// exceed ChainPruneFactor x the best current score is pruned — the
// triangle-inequality-flavored floor (a chain cannot undercut its access
// legs' combined propagation delay) with slack for the
// congestion-induced violations the overlay exists to exploit; each
// level is additionally capped at ChainCandidates^2 survivors (lowest
// srtt-sum first) so deep searches stay bounded. Enumeration and pruning
// always run on the delay metric whatever the ranking objective — the
// srtt sum is a physical floor; the objective then ranks whatever
// survives. New candidates get fresh states; chains that fall out of
// candidacy are dropped unless some view holds them as its committed
// best route or current challenger, which stay probed so hysteresis (not
// enumeration churn) decides their fate. Caller holds m.mu.
func (m *Monitor) rebuildChainsLocked(now time.Time) {
	want := make(map[Route]bool)
	var chains []Route
	pruned, nSingles := 0, 0
	if m.cfg.MaxHops >= 2 {
		type single struct {
			relay string
			score float64
			srtt  float64
		}
		best := math.Inf(1)
		singles := make([]single, 0, len(m.order))
		for _, p := range m.order {
			st := m.states[p]
			score := st.score(now, m.staleAfter())
			if score < best {
				best = score
			}
			if p.IsDirect() || st.down() {
				continue
			}
			singles = append(singles, single{relay: p.First(), score: score, srtt: st.srtt})
		}
		// Chains can themselves hold the best score; they only tighten the
		// pruning bound, never loosen it.
		for _, p := range m.chains {
			if st := m.states[p]; st != nil {
				if score := st.score(now, m.staleAfter()); score < best {
					best = score
				}
			}
		}
		sort.SliceStable(singles, func(i, j int) bool { return singles[i].score < singles[j].score })
		if len(singles) > m.cfg.ChainCandidates {
			singles = singles[:m.cfg.ChainCandidates]
		}
		nSingles = len(singles)

		// The beam: level d holds the surviving depth-d hop lists with
		// their srtt sums; level 1 is the ranked singles themselves.
		type cand struct {
			hops []string
			sum  float64
		}
		level := make([]cand, 0, len(singles))
		for _, s := range singles {
			level = append(level, cand{hops: []string{s.relay}, sum: s.srtt})
		}
		beamWidth := m.cfg.ChainCandidates * m.cfg.ChainCandidates
		for depth := 2; depth <= m.cfg.MaxHops && len(level) > 0; depth++ {
			next := make([]cand, 0, len(level)*len(singles))
			for _, c := range level {
				for _, s := range singles {
					if containsHop(c.hops, s.relay) {
						continue
					}
					sum := c.sum + s.srtt
					if m.cfg.ChainPruneFactor > 0 && !math.IsInf(best, 1) &&
						sum > m.cfg.ChainPruneFactor*best {
						pruned++
						continue
					}
					hops := make([]string, len(c.hops)+1)
					copy(hops, c.hops)
					hops[len(c.hops)] = s.relay
					next = append(next, cand{hops: hops, sum: sum})
				}
			}
			sort.SliceStable(next, func(i, j int) bool { return next[i].sum < next[j].sum })
			if len(next) > beamWidth {
				pruned += len(next) - beamWidth
				next = next[:beamWidth]
			}
			for _, c := range next {
				r := MakeRoute(c.hops...)
				if !want[r] {
					want[r] = true
					chains = append(chains, r)
				}
			}
			level = next
		}
	}
	// Never stop probing any view's incumbent or challenger
	// mid-hysteresis — including pinned routes outside the static set, at
	// any depth.
	for _, v := range m.views {
		for _, keep := range []Route{v.best, v.challenger} {
			if keep.IsDirect() || m.static[keep] || want[keep] {
				continue
			}
			want[keep] = true
			chains = append(chains, keep)
		}
	}

	changed := len(chains) != len(m.chains)
	for _, c := range chains {
		if m.states[c] == nil {
			m.states[c] = &pathState{route: c}
			changed = true
		}
	}
	for p := range m.states {
		if !m.static[p] && !want[p] {
			delete(m.states, p)
			changed = true
		}
	}
	m.chains = chains
	if changed {
		m.scope.Event(obs.EventChainCandidates,
			fmt.Sprintf("%d chain(s) from %d single-hop candidate(s), %d pruned",
				len(chains), nSingles, pruned))
	}
}

// containsHop reports whether hops already crosses relay — beam
// extensions never revisit a relay.
func containsHop(hops []string, relay string) bool {
	for _, h := range hops {
		if h == relay {
			return true
		}
	}
	return false
}

// commitSwitchLocked moves one view's best route. Caller holds m.mu.
func (m *Monitor) commitSwitchLocked(v *View, to Route, why string) {
	from := v.best
	v.best = to
	v.challenger, v.streak = Route{}, 0
	m.switches.Inc()
	m.scope.Event(obs.EventPathSwitch, fmt.Sprintf("%s%s -> %s (%s)", viewTag(v), from, to, why))
}

// rankForLocked builds one view's score-sorted table over every
// candidate — the static set (direct + fleet) and the current chain
// candidates — scored by the view's objective. Caller holds m.mu.
func (m *Monitor) rankForLocked(v *View, now time.Time) []RouteStatus {
	burstStale := m.burstStaleAfterLocked()
	out := make([]RouteStatus, 0, len(m.order)+len(m.chains))
	for _, p := range append(append([]Route(nil), m.order...), m.chains...) {
		st := m.states[p]
		if st == nil {
			continue
		}
		out = append(out, RouteStatus{
			Route:      p,
			Score:      st.score(now, m.staleAfter()),
			SRTT:       time.Duration(st.srtt * float64(time.Second)),
			RTTVar:     time.Duration(st.rttvar * float64(time.Second)),
			Mbps:       st.effMbps(now, burstStale),
			LastBurst:  st.lastBurst,
			Samples:    st.samples,
			Fails:      st.fails,
			Down:       st.down(),
			Best:       v.chosen && p == v.best,
			LastSample: st.lastSample,
		})
	}
	objectiveScores(v.obj, out)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}

// Pin forces the best route on every objective view — an operator
// override (or test hook). Any depth is accepted, including routes
// outside the current candidate set: a pinned route gets a state and a
// probe-set slot, and the pin holds until a later round's hysteresis
// commits a switch away from it, exactly as if the monitor had chosen
// the route itself. A view created before the next integrated round
// starts on the pinned route too.
func (m *Monitor) Pin(p Route) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.views {
		v.best = p
		v.chosen = true
		v.challenger, v.streak = Route{}, 0
	}
	m.pin, m.pinned = p, true
	if m.states[p] == nil {
		m.states[p] = &pathState{route: p}
		m.chains = append(m.chains, p)
	}
	m.scope.Event(obs.EventPathSwitch, fmt.Sprintf("pinned %s", p))
	m.notifyLocked()
}

// Subscribe registers for ranking-change wakeups: the returned channel
// receives a (coalesced) notification after every integrated probe round
// and every Pin. Subscribers re-read a view's Ranked()/Best() — the
// channel carries no data, so a slow consumer misses nothing but
// intermediate states. The unsubscribe func releases the registration.
func (m *Monitor) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	m.mu.Lock()
	m.subs[ch] = struct{}{}
	m.mu.Unlock()
	return ch, func() {
		m.mu.Lock()
		delete(m.subs, ch)
		m.mu.Unlock()
	}
}

// notifyLocked wakes every subscriber without blocking. Caller holds
// m.mu.
func (m *Monitor) notifyLocked() {
	for ch := range m.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Best is the latency view's Best.
func (m *Monitor) Best() (Route, bool) { return m.View(ObjectiveLatency).Best() }

// Ranked is the latency view's Ranked.
func (m *Monitor) Ranked() []RouteStatus { return m.View(ObjectiveLatency).Ranked() }

// Rounds returns how many probe rounds have been integrated.
func (m *Monitor) Rounds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roundsDone
}
