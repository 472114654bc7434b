package cronets

// End-to-end observability test: relay and multipath traffic run through a
// netem shaper with a shared obs registry, and the /metrics exposition is
// scraped over HTTP and checked for the expected series with sane values.

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cronets/internal/chain"
	"cronets/internal/measure"
	"cronets/internal/multipath"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/relay"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds an exact series line ("name value") in a Prometheus
// text exposition and returns its value.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s has unparsable value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, text)
	return 0
}

func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("netem e2e is skipped in -short mode")
	}
	reg := obs.NewRegistry()

	// Measurement server: the traffic destination.
	msLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := measure.NewServer(msLn)
	go ms.Serve() //nolint:errcheck
	defer ms.Close()

	// CONNECT-mode split relay with metrics.
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(relayLn, relay.Config{Obs: reg})
	go r.Serve() //nolint:errcheck
	defer r.Close()

	// Netem shaper in front of the relay, with metrics and a fixed seed.
	nemLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shaper := netem.New(nemLn, relayLn.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: time.Millisecond, Jitter: time.Millisecond},
		Down: netem.Impairment{Latency: time.Millisecond},
		Seed: 42,
		Obs:  reg,
	})
	go shaper.Serve() //nolint:errcheck
	defer shaper.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Connection 1: sink-mode upload through netem -> relay -> server.
	const uploadBytes = 1 << 20
	conn, err := chain.Dial(ctx, []string{shaper.Addr().String()}, msLn.Addr().String(), chain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The sink-mode byte: the server discards the rest.
	if _, err := conn.Write([]byte{'S'}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	for sent := 0; sent < uploadBytes; sent += len(payload) {
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("upload write: %v", err)
		}
	}
	_ = conn.Close()

	// Connection 2: RTT probes recorded into a registry histogram.
	const probes = 5
	rttHist := reg.Histogram("cronets_measure_probe_rtt_seconds",
		"Application-level RTT of echo probes.", obs.LatencyBuckets)
	probeConn, err := chain.Dial(ctx, []string{shaper.Addr().String()}, msLn.Addr().String(), chain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure.ProbeRTTContext(ctx, probeConn, probes, rttHist); err != nil {
		t.Fatal(err)
	}
	_ = probeConn.Close()

	// Multipath traffic over two in-process subflows, same registry. The
	// payload is 8 segments, one subflow's whole inflight cap, so a writer
	// scheduled first could carry it all; each subflow's first write waits
	// at a barrier until the other's has started, so both carry traffic.
	const mpBytes = 256 << 10
	var senderConns, receiverConns []net.Conn
	var firstWrites sync.WaitGroup
	firstWrites.Add(2)
	for i := 0; i < 2; i++ {
		a, b := net.Pipe()
		senderConns = append(senderConns, &barrierConn{Conn: a, barrier: &firstWrites})
		receiverConns = append(receiverConns, b)
	}
	mpCfg := multipath.Config{Obs: reg}
	sender, err := multipath.NewSender(senderConns, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := multipath.NewReceiver(receiverConns, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var received int64
	go func() {
		defer wg.Done()
		n, _ := io.Copy(io.Discard, receiver)
		received = n
	}()
	if _, err := sender.Write(make([]byte, mpBytes)); err != nil {
		t.Fatal(err)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = receiver.Close()
	if received != mpBytes {
		t.Fatalf("multipath received %d bytes, want %d", received, mpBytes)
	}

	// The relay handler goroutines count bytes after the client closes,
	// and netem counts a chunk only once it has written it to the relay;
	// wait until both counters settle.
	shapedUp := reg.Counter(obs.Label("cronets_netem_shaped_bytes_total", "dir", "up"), "")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		(r.Stats().BytesUp.Load() < uploadBytes || shapedUp.Value() < uploadBytes) {
		time.Sleep(10 * time.Millisecond)
	}

	// Scrape the exposition over real HTTP.
	srv := httptest.NewServer(reg.MetricsHandler())
	defer srv.Close()
	text := scrape(t, srv.URL)

	// Relay series: both connections' bytes, and one dial-latency sample
	// per successful upstream dial.
	if up := metricValue(t, text, `cronets_relay_bytes_total{dir="up"}`); up < uploadBytes {
		t.Errorf("relay bytes up = %v, want >= %d", up, uploadBytes)
	}
	if down := metricValue(t, text, `cronets_relay_bytes_total{dir="down"}`); down <= 0 {
		t.Errorf("relay bytes down = %v, want > 0", down)
	}
	if got := metricValue(t, text, "cronets_relay_dial_latency_seconds_count"); got != 2 {
		t.Errorf("dial latency count = %v, want 2 (one per connection)", got)
	}
	if got := metricValue(t, text, "cronets_relay_accepted_total"); got != 2 {
		t.Errorf("accepted = %v, want 2", got)
	}

	// Multipath series: the two subflows together carried the payload.
	sub0 := metricValue(t, text, `cronets_multipath_subflow_bytes_total{subflow="0"}`)
	sub1 := metricValue(t, text, `cronets_multipath_subflow_bytes_total{subflow="1"}`)
	if sub0+sub1 != mpBytes {
		t.Errorf("subflow bytes %v + %v = %v, want %d", sub0, sub1, sub0+sub1, mpBytes)
	}
	if sub0 <= 0 || sub1 <= 0 {
		t.Errorf("both subflows should carry traffic, got %v / %v", sub0, sub1)
	}

	// Netem series: everything the relay saw passed through the shaper.
	if shaped := metricValue(t, text, `cronets_netem_shaped_bytes_total{dir="up"}`); shaped < uploadBytes {
		t.Errorf("netem shaped up = %v, want >= %d", shaped, uploadBytes)
	}
	if delays := metricValue(t, text, "cronets_netem_added_delay_seconds_count"); delays <= 0 {
		t.Errorf("netem delay histogram count = %v, want > 0", delays)
	}

	// Measure series: one histogram sample per probe.
	if got := metricValue(t, text, "cronets_measure_probe_rtt_seconds_count"); got != probes {
		t.Errorf("probe rtt count = %v, want %d", got, probes)
	}

	// Flow events: the two CONNECTs and dials are in the ring.
	var connects, dials int
	for _, e := range reg.Events().Snapshot() {
		switch e.Type {
		case obs.EventConnect:
			connects++
		case obs.EventDial:
			dials++
		}
	}
	if connects != 2 || dials != 2 {
		t.Errorf("event ring: connects=%d dials=%d, want 2/2", connects, dials)
	}
}

// barrierConn holds its first Write until every conn sharing the barrier
// has reached its own first Write.
type barrierConn struct {
	net.Conn
	barrier *sync.WaitGroup
	once    sync.Once
}

func (c *barrierConn) Write(p []byte) (int, error) {
	c.once.Do(func() {
		c.barrier.Done()
		c.barrier.Wait()
	})
	return c.Conn.Write(p)
}

// TestMetricsEndpointsServeTogether wires the same handlers cronetsd
// mounts and checks each endpoint answers.
func TestMetricsEndpointsServeTogether(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cronets_smoke_total", "smoke").Add(3)
	reg.Scope("smoke").Event(obs.EventDial, "ok")

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.Handle("/debug/events", reg.EventsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if body := scrape(t, srv.URL+"/metrics"); !strings.Contains(body, "cronets_smoke_total 3") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if body := scrape(t, srv.URL+"/metrics.json"); !strings.Contains(body, `"cronets_smoke_total": 3`) {
		t.Errorf("/metrics.json body:\n%s", body)
	}
	if body := scrape(t, srv.URL+"/debug/events"); !strings.Contains(body, `"type": "dial"`) {
		t.Errorf("/debug/events body:\n%s", body)
	}
	if body := scrape(t, srv.URL+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
}
