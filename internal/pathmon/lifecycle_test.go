package pathmon

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"

	"cronets/internal/measure"
	"cronets/internal/obs"
	"cronets/internal/relay"
	"cronets/internal/servertest"
)

// blackholeDialer parks every dial until its context is cancelled — a
// filtered middlebox that never answers a SYN.
type blackholeDialer struct {
	dialing chan struct{}
}

func (d *blackholeDialer) DialContext(ctx context.Context, _, _ string) (net.Conn, error) {
	select {
	case d.dialing <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// refuseDialer fails every dial at once, as a host with nothing
// listening does.
type refuseDialer struct{}

func (refuseDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	return nil, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
}

// TestIntervalPacesRounds: the background loop probes once at Start and
// then once per Interval.
func TestIntervalPacesRounds(t *testing.T) {
	m, reg := synthMonitor(t, Config{Interval: 20 * time.Millisecond})
	m.Start()
	defer m.Close()
	rounds := reg.Counter("cronets_pathmon_rounds_total", "")
	deadline := time.Now().Add(2 * time.Second)
	for rounds.Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d probe rounds in 2 s at a 20 ms Interval, want 4", rounds.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseFastWithBlackholedProbe is the regression test for the Close
// stall: in-flight probe dials must observe the monitor-lifetime context
// the moment Close cancels it, not ride out their ProbeTimeout. With a
// 30 s probe budget and a dial that never returns, Close must still come
// back in milliseconds.
func TestCloseFastWithBlackholedProbe(t *testing.T) {
	d := &blackholeDialer{dialing: make(chan struct{}, 8)}
	m, _ := synthMonitor(t, Config{
		Fleet:        []string{"relay-a:9000"},
		Interval:     time.Hour,
		ProbeTimeout: 30 * time.Second,
		Dialer:       d,
	})
	m.Start()
	<-d.dialing // a probe dial is parked in the blackhole

	start := time.Now()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Close took %v with a blackholed probe in flight, want < 100ms", elapsed)
	}
}

// TestBurstSchedulingRoundRobin: with K burst slots per round, due routes
// share them round-robin — every route bursts on a fair cadence and no
// round pays more than K burst windows.
func TestBurstSchedulingRoundRobin(t *testing.T) {
	m, _ := synthMonitor(t, Config{
		Fleet:         []string{"r1:1", "r2:2", "r3:3"},
		BurstDuration: 100 * time.Millisecond,
		BurstEvery:    1,
	})
	counts := make(map[Route]int)
	// 4 routes, 2 slots/round: over 4 rounds every route bursts exactly
	// twice.
	for r := 0; r < 4; r++ {
		m.mu.Lock()
		due := m.scheduleBurstsLocked(m.order)
		m.roundsDone++
		m.mu.Unlock()
		if len(due) != 2 {
			t.Fatalf("round %d scheduled %d bursts, want 2", r, len(due))
		}
		for p := range due {
			counts[p]++
		}
	}
	for _, p := range m.order {
		if counts[p] != 2 {
			t.Errorf("route %v burst %d time(s) over 4 rounds, want exactly 2", p, counts[p])
		}
	}
}

// TestBurstSchedulingCadence: BurstEvery spaces one route's bursts N
// rounds apart even when slots are free.
func TestBurstSchedulingCadence(t *testing.T) {
	m, _ := synthMonitor(t, Config{
		Fleet:         []string{"r1:1"},
		BurstDuration: 100 * time.Millisecond,
		BurstEvery:    3,
	})
	var burstRounds []int64
	for r := int64(1); r <= 9; r++ {
		m.mu.Lock()
		due := m.scheduleBurstsLocked(m.order)
		m.roundsDone++
		m.mu.Unlock()
		if len(due) > 0 {
			burstRounds = append(burstRounds, r)
		}
	}
	// lastBurstRound starts at 0, so the first slot lands on round
	// BurstEvery and repeats every BurstEvery after.
	want := []int64{3, 6, 9}
	if len(burstRounds) != len(want) {
		t.Fatalf("burst rounds = %v, want %v", burstRounds, want)
	}
	for i := range want {
		if burstRounds[i] != want[i] {
			t.Fatalf("burst rounds = %v, want %v", burstRounds, want)
		}
	}
}

// TestBurstAccounting: integrate counts attempts and failures, folds
// successful bursts into the smoothed estimate, and exposes Mbps +
// LastBurst in the ranked table.
func TestBurstAccounting(t *testing.T) {
	relayA := MakeRoute("relay-a:9000")
	m, reg := synthMonitor(t, Config{
		Fleet:         []string{relayA.First()},
		Alpha:         0.5,
		BurstDuration: 100 * time.Millisecond,
	})
	now := time.Unix(1000, 0)
	rtts := map[Route]time.Duration{Direct: 10 * time.Millisecond, relayA: 40 * time.Millisecond}

	feedRound(m, now, rtts, map[Route]float64{Direct: 100, relayA: -1}) // relay burst truncated
	feedRound(m, now.Add(time.Second), rtts, map[Route]float64{Direct: 50})

	if got := reg.Counter("cronets_pathmon_bursts_total", "").Value(); got != 3 {
		t.Errorf("bursts_total = %d, want 3", got)
	}
	if got := reg.Counter("cronets_pathmon_burst_failures_total", "").Value(); got != 1 {
		t.Errorf("burst_failures_total = %d, want 1", got)
	}

	m.now = func() time.Time { return now.Add(time.Second) }
	for _, st := range m.Ranked() {
		switch st.Route {
		case Direct:
			// Alpha=0.5: 100 then 50 smooths to 75.
			if st.Mbps != 75 {
				t.Errorf("direct Mbps = %v, want 75 (EWMA of 100, 50)", st.Mbps)
			}
			if !st.LastBurst.Equal(now.Add(time.Second)) {
				t.Errorf("direct LastBurst = %v, want the second round's time", st.LastBurst)
			}
		case relayA:
			// Its only burst failed: no sample, no estimate, no timestamp.
			if st.Mbps != 0 || !st.LastBurst.IsZero() {
				t.Errorf("failed-burst relay advertises Mbps=%v LastBurst=%v", st.Mbps, st.LastBurst)
			}
		}
	}

	// The failure is visible in the event stream.
	var sawFail bool
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventBurst && e.Component == "pathmon" {
			sawFail = sawFail || e.Detail != ""
		}
	}
	if !sawFail {
		t.Error("no burst event recorded")
	}
}

// TestCloseWithBurstsAndChainsInFlight: Close over real relays, while
// one-minute throughput bursts and chain probes are in flight, gives back
// every goroutine and socket.
func TestCloseWithBurstsAndChainsInFlight(t *testing.T) {
	check := servertest.CheckLeaks(t)
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	destLn := listen()
	dest := measure.NewServer(destLn)
	go func() { _ = dest.Serve() }()
	var relays []*relay.Relay
	var fleet []string
	for i := 0; i < 2; i++ {
		ln := listen()
		r := relay.New(ln, relay.Config{})
		go func() { _ = r.Serve() }()
		relays = append(relays, r)
		fleet = append(fleet, ln.Addr().String())
	}
	m, err := New(Config{
		Dest:             destLn.Addr().String(),
		Fleet:            fleet,
		Interval:         time.Hour,
		MaxHops:          2,
		ChainPruneFactor: -1,
		BurstDuration:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the single-hop table so the first live round probes chains.
	round(m, time.Now(), map[Route]time.Duration{
		Direct: time.Millisecond, MakeRoute(fleet[0]): time.Millisecond, MakeRoute(fleet[1]): time.Millisecond,
	})
	if n := len(chainSet(m)); n != 2 {
		t.Fatalf("%d chain candidates, want 2", n)
	}
	// The round's two burst slots go to the two chains, which come after
	// the static routes in the probe order.
	m.burstCursor = len(m.order)
	m.Start()

	// A single-hop route holds at most one relayed connection per relay
	// at a time, so four at once means a chain connection is open; a
	// megabyte through the relays means bursts are uploading.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var active, up int64
		for _, r := range relays {
			active += r.Stats().Active.Load()
			up += r.Stats().BytesUp.Load()
		}
		if active >= 4 && up >= 1<<20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw bursts and chains in flight: %d relayed conns, %d bytes up", active, up)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range relays {
		_ = r.Close()
	}
	_ = dest.Close()
	check()
}
