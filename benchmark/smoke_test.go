package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// spec is BENCHMARK.json, which names every metric a run must emit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	if len(s.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run reports %d", len(s.PerLayer), len(perLayerMetrics))
	}
	for i := range min(len(s.PerLayer), len(perLayerMetrics)) {
		if got, want := s.PerLayer[i], perLayerMetrics[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("per_layer[%d] is %s (%s), code reports %s (%s)", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
}

// runChecked runs one short workload and checks the result against the
// spec's metric list.
func runChecked(t *testing.T, o options, want map[string]string) *result {
	t.Helper()
	rep, res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printRun(&out, rep, res); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys(last))
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s in %s, want %s", name, m.Unit, unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted %d ops", res.Attempted)
	}
	return res
}

func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	names := workloadNames()
	if testing.Short() {
		names = []string{"flows_1hop", "sim_reallife"}
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			res := runChecked(t, options{workload: w, seed: 42, seconds: 1}, e2e)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run measures every layer")
	}
	s := loadSpec(t)
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	res := runChecked(t, options{workload: "flows_1hop", seed: 42, seconds: 1, trace: true, spans: spans}, layer)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file not written: %v", err)
	}
}

// TestCorruptionFails flips one byte in every reply of the benchmark's
// destination server: the run must notice, and still print a result that
// says so although no op completed.
func TestCorruptionFails(t *testing.T) {
	rep, res, err := run(options{workload: "flows_1hop", seed: 42, seconds: 0.5, corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted replies passed: correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	var out bytes.Buffer
	if err := printRun(&out, rep, res); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last result
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != res.Failed {
		t.Errorf("printed correct=%v failed=%d, want false and %d", last.Correct, last.Failed, res.Failed)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
