package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOut is one run's parsed output.
type runOut struct {
	file     string
	workload string
	machine  fingerprint
	res      result
}

// summarizeMain prints the median and quartiles of every metric of a
// directory of run outputs, per workload, with the machine fingerprint
// of the first run: the form baseline.json records.
func summarizeMain(args []string, out io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: summarize RUNS_DIR")
	}
	runs, err := readRuns(args[0])
	if err != nil {
		return err
	}
	type stat struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"iqr_over_median"`
	}
	type wl struct {
		Runs    int             `json:"runs"`
		Failed  int             `json:"failed_ops"`
		Metrics map[string]stat `json:"metrics"`
	}
	sum := struct {
		Machine   fingerprint   `json:"machine"`
		Workloads map[string]wl `json:"workloads"`
	}{Workloads: map[string]wl{}}
	for _, name := range sortedKeys(runs) {
		rs := runs[name]
		sum.Machine = rs[0].machine
		w := wl{Runs: len(rs), Metrics: map[string]stat{}}
		for _, r := range rs {
			w.Failed += r.res.Failed
		}
		for m, v := range rs[0].res.Metrics {
			q1, q2, q3 := quartiles(values(rs, m))
			w.Metrics[m] = stat{Unit: v.Unit, Median: q2, Q1: q1, Q3: q3, Spread: ratio(q3-q1, math.Abs(q2))}
		}
		sum.Workloads[name] = w
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// compareMain compares two directories of run outputs (one file per
// run, holding its standard output) metric by metric and workload by
// workload, with the bounds of BENCHMARK.json in the current directory.
// Runs pair up in file-name order, so name the files of both sides alike
// and run them interleaved.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare PARENT_DIR CHANGE_DIR")
	}
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readRuns(args[0])
	if err != nil {
		return err
	}
	c, err := readRuns(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent p50 [q1, q3]\tchange p50 [q1, q3]\tgain\tpairs won\tverdict")
	for _, wl := range sortedKeys(a) {
		pa, pc := a[wl], c[wl]
		if len(pc) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t%d runs\tno runs\t\t\tmissing\n", wl, len(pa))
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xc := values(pa, m.Name), values(pc, m.Name)
			if len(xa) == 0 || len(xc) == 0 {
				continue
			}
			v := judge(xa, xc, m.Better == "higher", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", wl, m.Name,
				quartileText(xa), quartileText(xc), v.change*100, v.won, v.pairs, v.verdict)
		}
		fa, fc := failFrac(pa), failFrac(pc)
		verdict := "unchanged"
		if fc > fa {
			verdict = "worse"
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%.3g\t%.3g\t\t\t%s\n", wl, fa, fc, verdict)
	}
	return tw.Flush()
}

// readRuns parses every file in dir, grouping the runs by workload and
// ordering each group by file name.
func readRuns(dir string) (map[string][]runOut, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]runOut{}
	for _, e := range ents {
		// Empty files are skipped, so stderr captures may sit beside the
		// outputs.
		if info, err := e.Info(); err != nil || e.IsDir() || info.Size() == 0 {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[r.workload] = append(out[r.workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].file < rs[j].file })
	}
	return out, nil
}

// readRun takes the workload from the report line and the numbers from
// the result line, which is the file's last line.
func readRun(path string) (runOut, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOut{}, err
	}
	defer f.Close()
	r := runOut{file: filepath.Base(path)}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		last = line
		var rep struct {
			Workload string      `json:"workload"`
			Machine  fingerprint `json:"machine"`
		}
		if json.Unmarshal([]byte(line), &rep) == nil && rep.Workload != "" {
			r.workload, r.machine = rep.Workload, rep.Machine
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.workload == "" || json.Unmarshal([]byte(last), &r.res) != nil || r.res.Metrics == nil {
		return r, fmt.Errorf("%s: not a benchmark run output", path)
	}
	return r, nil
}

func values(rs []runOut, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failFrac(rs []runOut) float64 {
	att, fail := 0, 0
	for _, r := range rs {
		att += r.res.Attempted
		fail += r.res.Failed
	}
	return ratio(float64(fail), float64(att))
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// verdict is one metric's comparison.
type verdict struct {
	change     float64 // relative change of the median, signed so + is better
	won, pairs int
	verdict    string
}

// judge applies the rules for a claimed gain and for a regression: the
// change improved if it wins at least 9 in 10 pairs and its median moved
// by more than the parent's interquartile range; it is worse if its median
// is worse by more than the bound; it is unresolved if either side's
// spread (IQR ÷ median) is wider than the bound, unless every change run
// beats every parent run; otherwise it is unchanged.
func judge(parent, change []float64, higherBetter bool, bound float64) verdict {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	v := verdict{pairs: min(len(parent), len(change))}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.won++
		}
	}
	if pm != 0 {
		v.change = (cm - pm) / math.Abs(pm)
		if !higherBetter {
			v.change = -v.change
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := math.Max(ratio(pq3-pq1, math.Abs(pm)), ratio(cq3-cq1, math.Abs(cm)))
	switch {
	case v.pairs > 0 && float64(v.won) >= 0.9*float64(v.pairs) && math.Abs(cm-pm) > pq3-pq1:
		v.verdict = "improved"
	case v.change < -bound:
		v.verdict = "worse"
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

func sortedKeys(m map[string][]runOut) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
