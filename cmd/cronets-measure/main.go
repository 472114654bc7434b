// Command cronets-measure is an iperf-style measurement tool for the
// real-socket overlay stack: run a server at one site, then measure
// throughput and RTT from another — directly, or through a cronetsd relay
// to compare the direct and overlay paths.
//
// Usage:
//
//	cronets-measure server -listen :9100
//	cronets-measure client -connect host:9100 [-duration 10s]
//	cronets-measure client -connect host:9100 -relay relayhost:9000
//	cronets-measure rtt    -connect host:9100 [-relay relayhost:9000] [-count 10]
//	cronets-measure trace  -connect host:9100 -relay relayhost:9000 \
//	    [-traces-url http://relayhost:9090/debug/traces] [-count 5]
//
// The trace subcommand (the "cronets-trace" inspection mode) runs one
// traced probe flow and prints a hop-by-hop latency waterfall. With
// -traces-url pointing at a cronetsd /debug/traces endpoint, the relay's
// server-side spans are fetched and merged into the waterfall.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cronets/internal/chain"
	"cronets/internal/flowtrace"
	"cronets/internal/measure"
	"cronets/internal/pipe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "server":
		err = runServer(os.Args[2:])
	case "client":
		err = runClient(os.Args[2:])
	case "rtt":
		err = runRTT(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cronets-measure:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cronets-measure server -listen ADDR
  cronets-measure client -connect ADDR [-relay ADDR] [-duration D]
  cronets-measure rtt    -connect ADDR [-relay ADDR] [-count N]
  cronets-measure trace  -connect ADDR [-relay ADDR] [-traces-url URL] [-count N]`)
}

func runServer(args []string) error {
	fs := flag.NewFlagSet("server", flag.ExitOnError)
	listen := fs.String("listen", ":9100", "address to listen on")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	srv := measure.NewServer(ln)
	log.Printf("measurement server on %s", srv.Addr())
	return srv.Serve()
}

func dialMaybeRelay(ctx context.Context, connect, relayAddr string) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(ctx, pipe.DialTimeout)
	defer cancel()
	if relayAddr == "" {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", connect)
	}
	return chain.Dial(ctx, []string{relayAddr}, connect, chain.Options{})
}

func runClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	connect := fs.String("connect", "", "measurement server address")
	relayAddr := fs.String("relay", "", "optional cronetsd relay to go through")
	duration := fs.Duration("duration", 10*time.Second, "measurement duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}
	// The run is bounded: the dial timeout plus the measured window.
	ctx, cancel := context.WithTimeout(context.Background(), *duration+pipe.DialTimeout)
	defer cancel()
	conn, err := dialMaybeRelay(ctx, *connect, *relayAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	res, err := measure.Throughput(ctx, conn, *duration)
	if err != nil {
		return err
	}
	via := "direct"
	if *relayAddr != "" {
		via = "via relay " + *relayAddr
	}
	fmt.Printf("%s: %.2f Mbps (%d bytes in %v)\n", via, res.Mbps, res.Bytes, res.Elapsed.Round(time.Millisecond))
	return nil
}

func runRTT(args []string) error {
	fs := flag.NewFlagSet("rtt", flag.ExitOnError)
	connect := fs.String("connect", "", "measurement server address")
	relayAddr := fs.String("relay", "", "optional cronetsd relay to go through")
	count := fs.Int("count", 10, "number of probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}
	conn, err := dialMaybeRelay(context.Background(), *connect, *relayAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stats, err := measure.ProbeRTTContext(context.Background(), conn, *count, nil)
	if err != nil {
		return err
	}
	fmt.Printf("rtt min/avg/max = %v / %v / %v over %d probes\n",
		stats.Min.Round(time.Microsecond), stats.Avg.Round(time.Microsecond),
		stats.Max.Round(time.Microsecond), stats.Samples)
	return nil
}

// runTrace is the cronets-trace inspection mode: one traced probe flow,
// then a hop-by-hop latency waterfall assembled from the client's local
// spans plus, with -traces-url, the server-side spans published on a
// cronetsd /debug/traces endpoint.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	connect := fs.String("connect", "", "measurement server address")
	relayAddr := fs.String("relay", "", "optional cronetsd relay to go through")
	tracesURL := fs.String("traces-url", "", "cronetsd /debug/traces endpoint to merge server-side spans from")
	count := fs.Int("count", 5, "number of RTT probes inside the traced flow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}

	tracer := flowtrace.New(flowtrace.Config{Node: "client", SampleRate: 1})
	flow := tracer.Start("client.flow", flowtrace.Context{})
	ctx := flowtrace.NewGoContext(context.Background(), flow.Context())

	dial := tracer.Start("client.dial", flow.Context())
	conn, err := dialMaybeRelay(flowtrace.NewGoContext(ctx, dial.Context()), *connect, *relayAddr)
	if err != nil {
		dial.SetDetail("fail " + *connect)
		dial.End()
		flow.End()
		return err
	}
	via := "direct"
	if *relayAddr != "" {
		via = "via relay " + *relayAddr
	}
	dial.SetDetail(via)
	dial.End()
	defer conn.Close()

	probe := tracer.Start("client.probe", flow.Context())
	// A first single probe isolates first-byte latency; the remaining
	// probes measure the steady-state path.
	first, err := measure.ProbeRTTContext(ctx, conn, 1, nil)
	if err != nil {
		probe.End()
		flow.End()
		return err
	}
	probe.MarkFirstByte()
	flow.MarkFirstByte()
	stats := first
	if *count > 1 {
		stats, err = measure.ProbeRTTContext(ctx, conn, *count-1, nil)
		if err != nil {
			probe.End()
			flow.End()
			return err
		}
	}
	probe.SetDetail(fmt.Sprintf("%d probes, avg %v", *count, stats.Avg.Round(time.Microsecond)))
	probe.End()
	flow.End()
	// Close before fetching remote spans: the relay's splice span only
	// ends once the connection tears down.
	_ = conn.Close()

	traceID := flow.Context().Trace.String()
	spans := localSpans(tracer, traceID)
	if *tracesURL != "" {
		time.Sleep(200 * time.Millisecond) // let hop spans drain into the remote ring
		remote, err := fetchRemoteSpans(*tracesURL, traceID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cronets-measure: fetch %s: %v\n", *tracesURL, err)
		} else {
			spans = append(spans, remote...)
		}
	}
	fmt.Printf("trace %s (%s): first byte %v, probe avg %v\n", traceID, via,
		first.Min.Round(time.Microsecond), stats.Avg.Round(time.Microsecond))
	printWaterfall(os.Stdout, spans)
	return nil
}

// localSpans converts the client tracer's assembled trace into records.
func localSpans(tracer *flowtrace.Tracer, traceID string) []flowtrace.SpanRecord {
	for _, tr := range tracer.Traces() {
		if tr.TraceID == traceID {
			return tr.Spans
		}
	}
	return nil
}

// fetchRemoteSpans pulls one trace's spans from a /debug/traces endpoint.
func fetchRemoteSpans(tracesURL, traceID string) ([]flowtrace.SpanRecord, error) {
	sep := "?"
	if strings.Contains(tracesURL, "?") {
		sep = "&"
	}
	resp, err := http.Get(tracesURL + sep + "trace=" + traceID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var traces []flowtrace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return nil, err
	}
	var spans []flowtrace.SpanRecord
	for _, tr := range traces {
		spans = append(spans, tr.Spans...)
	}
	return spans, nil
}

// printWaterfall renders spans as an indented latency waterfall: offset
// from the trace start, name and node, duration, and per-span byte and
// first-byte annotations. Children indent under their parent.
func printWaterfall(w io.Writer, spans []flowtrace.SpanRecord) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "  (no spans)")
		return
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	depth := make(map[string]int, len(spans))
	parent := make(map[string]string, len(spans))
	for _, s := range spans {
		parent[s.SpanID] = s.ParentID
	}
	var depthOf func(id string) int
	depthOf = func(id string) int {
		if d, ok := depth[id]; ok {
			return d
		}
		depth[id] = 0 // breaks cycles from malformed input
		p := parent[id]
		if p == "" {
			return 0
		}
		d := depthOf(p) + 1
		depth[id] = d
		return d
	}
	start := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(start) {
			start = s.Start
		}
	}
	for _, s := range spans {
		offset := s.Start.Sub(start)
		extras := ""
		if s.Bytes > 0 {
			extras += " " + strconv.FormatInt(s.Bytes, 10) + "B"
		}
		if s.FirstByteMS > 0 {
			extras += fmt.Sprintf(" ttfb=%.3fms", s.FirstByteMS)
		}
		if s.Detail != "" {
			extras += " (" + s.Detail + ")"
		}
		fmt.Fprintf(w, "  %8.3fms %s%s@%s %.3fms%s\n",
			float64(offset)/float64(time.Millisecond),
			strings.Repeat("  ", depthOf(s.SpanID)),
			s.Name, s.Node, s.DurationMS, extras)
	}
}
