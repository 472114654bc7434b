package cronets

// Failover end-to-end test: a multipath channel runs over two netem-shaped
// TCP paths; the shaper on path 0 is scripted to kill its first connection
// mid-stream at an exact byte offset. The sender must redial through the
// same shaper, rejoin the channel via the JOIN handshake, retransmit what
// the dead subflow lost, and deliver the payload byte-identical — all of it
// observable in the shared metrics registry and flow-event ring.

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cronets/internal/multipath"
	"cronets/internal/netem"
	"cronets/internal/obs"
)

func TestFailoverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("netem e2e is skipped in -short mode")
	}
	const (
		subflows = 2
		killAt   = 128 << 10
		total    = 1 << 20
	)
	reg := obs.NewRegistry()

	// Receiver-side listener: the first `subflows` accepts become the
	// initial subflow set, every later accept is a JOIN attempt.
	destLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer destLn.Close()
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := destLn.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()

	// One netem shaper per path. Path 0 kills its first connection after
	// forwarding exactly killAt bytes upstream — a mid-transfer link cut.
	shapers := make([]*netem.Proxy, subflows)
	for i := range shapers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := netem.Config{Seed: int64(i) + 1, Obs: reg}
		if i == 0 {
			cfg.Faults = netem.FaultPlan{Rules: []netem.FaultRule{
				{Conn: 0, Dir: netem.DirUp, AfterBytes: killAt, Action: netem.FaultKill},
			}}
		}
		shapers[i] = netem.New(ln, destLn.Addr().String(), cfg)
		go shapers[i].Serve() //nolint:errcheck
		defer shapers[i].Close()
	}
	dialPath := func(i int) (net.Conn, error) {
		return net.Dial("tcp", shapers[i].Addr().String())
	}

	var senderConns, receiverConns []net.Conn
	for i := 0; i < subflows; i++ {
		c, err := dialPath(i)
		if err != nil {
			t.Fatal(err)
		}
		senderConns = append(senderConns, c)
		receiverConns = append(receiverConns, <-accepted)
	}

	mpCfg := multipath.Config{
		MaxSegBytes: 4 << 10,
		ChannelID:   42,
		Dialer:      dialPath,
		Obs:         reg,
	}
	receiver, err := multipath.NewReceiver(receiverConns, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	go func() {
		for c := range accepted {
			_ = receiver.Join(c)
		}
	}()
	sender, err := multipath.NewSender(senderConns, mpCfg)
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, total)
	rand.New(rand.NewSource(7)).Read(payload)
	var (
		got     []byte
		readErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, readErr = io.ReadAll(receiver)
	}()

	// Stream MaxSegBytes pieces until shaper 0 has forwarded killAt bytes
	// and severed subflow 0. Striping decides how much of each write
	// reaches shaper 0, so write until the fault fires, not a fixed
	// amount. Write returns once a segment is queued, so each write waits
	// for the acknowledgments to come within two subflow windows (16
	// segments) of it; 64 KiB stays back for the trickle and the tail.
	faults := reg.Counter("cronets_netem_faults_total", "")
	deadline := time.Now().Add(10 * time.Second)
	off := 0
	for faults.Value() == 0 && time.Now().Before(deadline) {
		if off+mpCfg.MaxSegBytes > total-64<<10 {
			t.Fatalf("fault never fired after %d bytes", off)
		}
		if _, err := sender.Write(payload[off : off+mpCfg.MaxSegBytes]); err != nil {
			t.Fatalf("write before failover: %v", err)
		}
		off += mpCfg.MaxSegBytes
		for sender.CumAcked()+16 < uint64(off/mpCfg.MaxSegBytes) &&
			faults.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	// The kill surfaces asynchronously (the severed bytes sit in kernel
	// buffers), so trickle until the full death-and-rejoin cycle is done:
	// the rejoin counter ticking over, with the slot back in service.
	rejoins := reg.Counter("cronets_multipath_rejoins_total", "")
	for time.Now().Before(deadline) &&
		!(rejoins.Value() >= 1 && sender.AliveSubflows() == subflows) {
		if _, err := sender.Write(payload[off : off+1]); err != nil {
			t.Fatalf("write during failover: %v", err)
		}
		off++
		time.Sleep(time.Millisecond)
	}
	if rejoins.Value() < 1 || sender.AliveSubflows() != subflows {
		t.Fatalf("killed subflow never rejoined: alive = %d, rejoins = %d",
			sender.AliveSubflows(), rejoins.Value())
	}
	if _, err := sender.Write(payload[off:]); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if err := sender.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across failover: got %d bytes, want %d", len(got), len(payload))
	}

	// The recovery must be visible end to end: the netem fault fired, the
	// dead subflow's unacked segments were retransmitted, and the slot
	// rejoined — all scraped from the real exposition.
	srv := httptest.NewServer(reg.MetricsHandler())
	defer srv.Close()
	text := scrape(t, srv.URL)
	if v := metricValue(t, text, "cronets_netem_faults_total"); v != 1 {
		t.Errorf("netem faults = %v, want 1", v)
	}
	if v := metricValue(t, text, "cronets_multipath_retransmits_total"); v <= 0 {
		t.Errorf("retransmits = %v, want > 0 (kill stranded in-flight segments)", v)
	}
	if v := metricValue(t, text, "cronets_multipath_rejoins_total"); v < 1 {
		t.Errorf("rejoins = %v, want >= 1", v)
	}

	var sawFault, sawRejoin bool
	for _, e := range reg.Events().Snapshot() {
		switch e.Type {
		case obs.EventFaultInjected:
			sawFault = true
		case obs.EventSubflowRejoin:
			sawRejoin = true
		}
	}
	if !sawFault {
		t.Error("no fault-injected event in the ring")
	}
	if !sawRejoin {
		t.Error("no subflow-rejoin event in the ring")
	}
}
