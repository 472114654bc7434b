// Command benchmark measures the CRONets stack end to end and layer by
// layer. One process runs one workload from a seed: it builds the whole
// topology on loopback (or the simulator) in-process, measures for a
// fixed time, checks the outputs, and prints one JSON report line
// followed by one JSON result line.
//
//	benchmark --workload flows_1hop --seed 42 --seconds 10 --trace 0
//	benchmark --workload flows_1hop --seed 42 --seconds 10 --trace 1 --spans spans.json
//	benchmark compare runs/parent runs/change
//	benchmark summarize runs/parent
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: the same metrics with the
// context needed to read them.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Seconds     float64           `json:"seconds"`
	Machine     fingerprint       `json:"machine"`
	Traffic     string            `json:"traffic"`
	Generator   string            `json:"generator"`
	Metrics     map[string]metric `json:"metrics"`
	Correctness correctness       `json:"correctness"`
	Detail      map[string]any    `json:"detail"`
}

type correctness struct {
	OK       bool     `json:"ok"`
	Failures []string `json:"failures"`
}

const generator = "closed loop: 1 client goroutine, at most 1 client connection open"

// options are a run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file of a traced run
	corrupt  bool   // flip a byte in the destination's replies (tests)
}

// Durations derived from --seconds: the timed window is --seconds long,
// after an untimed warm-up that fills pools and caches, unless the
// workload's caches are part of what it measures.
func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func (o options) warmup(def workloadDef) time.Duration {
	if def.lazy {
		return 0
	}
	return min(2*time.Second, o.window()/5)
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. Most set-ups take under a millisecond, so one of them says
// little.
const setupRepeats = 21

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "compare" || args[0] == "summarize") {
		cmd := compareMain
		if args[0] == "summarize" {
			cmd = summarizeMain
		}
		if err := cmd(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	o, err := parseRun(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printRun(os.Stdout, rep, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: correctness check failed:", strings.Join(rep.Correctness.Failures, "; "))
		os.Exit(1)
	}
}

func parseRun(args []string) (options, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 42, "seed the inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer measurement instead")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace takes 0 or 1")
	}
	o.trace = trace == 1
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

func run(o options) (*report, *result, error) {
	if o.trace {
		return runTraced(o)
	}
	return runE2E(o)
}

func printRun(w io.Writer, rep *report, res *result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runE2E measures a workload's end-to-end metrics: make its inputs, set
// it up several times (setup_s is the median), warm it up, time it for
// --seconds, check the outputs, close everything and check for leaks.
func runE2E(o options) (*report, *result, error) {
	def, _ := lookupWorkload(o.workload)
	base := baseHygiene()
	e := env{seed: o.seed, data: newInputs(o.seed, def.bulk), corrupt: o.corrupt}
	var setups []float64
	var in *instance
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		cur, err := def.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			cur.close()
		} else {
			in = cur
		}
	}

	next := 0
	warm := runFor(o.warmup(def), &next, in.op)
	w := runFor(o.window(), &next, in.op)

	failures := append(warm.errSummary("warm-up"), w.errSummary("window")...)
	failures = append(failures, in.check(warm.attempted+w.attempted)...)
	detail := map[string]any{
		"latency_samples": w.completed(),
		"warmup_ops":      warm.attempted,
		"setup_s_all":     setups,
		"window_s":        w.elapsed.Seconds(),
		"ops_per_s_mean":  float64(w.completed()) / w.elapsed.Seconds(),
		"ops_by_second":   w.perSec,
		// Not an end-to-end metric: a host that deschedules the process
		// for milliseconds at a time moves it far more than the code does.
		"op_us_p99": w.lat.percentile(99),
	}
	in.detail(detail)
	in.close()
	goroutines, fds := base.leaked()
	detail["leaked_goroutines"] = goroutines
	detail["leaked_fds"] = fds
	if o.workload == "bulk_3hop" {
		detail["goodput_MBps"] = w.opsPerSec() * bulkBytes / 1e6
	}

	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {w.opsPerSec(), "op/s"},
		"op_us_p50":     {w.lat.percentile(50), "us"},
		"cpu_us_per_op": {w.perOp(float64(w.cpu.Microseconds())), "us"},
		"rss_peak_MB":   {peakRSSMB(), "MB"},
	}
	rep, res := finish(o, in.traffic, m, detail, failures, warm.attempted+w.attempted, warm.failed+w.failed)
	return rep, res, nil
}

// finish builds a run's report and result lines.
func finish(o options, traffic string, m map[string]metric, detail map[string]any,
	failures []string, attempted, failed int) (*report, *result) {
	if failures == nil {
		failures = []string{}
	}
	ok := len(failures) == 0
	rep := &report{
		Workload:    o.workload,
		Seed:        o.seed,
		Traced:      o.trace,
		Seconds:     o.seconds,
		Machine:     machine(),
		Traffic:     traffic,
		Generator:   generator,
		Metrics:     m,
		Correctness: correctness{OK: ok, Failures: failures},
		Detail:      detail,
	}
	return rep, &result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}
}

func deadline() time.Time { return time.Now().Add(opDeadline) }
