package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var endToEndMetrics = []string{"op_ms", "peak_rss_mb", "setup_s"}

func TestUntracedRunRecordsNoSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sim workload")
	}
	out := t.TempDir()
	res, lines, err := runWorkload(config{workload: "sim", seed: 3, seconds: 1, out: out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	var names []string
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(endToEndMetrics, " ") {
		t.Fatalf("metrics %v, want %v", names, endToEndMetrics)
	}
	for _, l := range lines {
		if strings.Contains(l, "span") {
			t.Fatalf("untraced run reports spans: %q", l)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(out, "trace-*")); len(files) != 0 {
		t.Fatalf("untraced run wrote %v", files)
	}
}

// perturb returns a copy of the goldens whose record digests for keys
// are wrong.
func perturb(t *testing.T, keys ...string) []byte {
	t.Helper()
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		e := g.Records[k]
		e.SHA256 = strings.Repeat("0", 64)
		g.Records[k] = e
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPerturbedGoldenFailsOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sim workload")
	}
	g := testGoldens(t)
	var keys []string
	for k := range g.Records {
		keys = append(keys, k)
	}
	saved := goldenJSON
	t.Cleanup(func() { goldenJSON = saved })
	goldenJSON = perturb(t, keys...)
	res, _, err := runWorkload(config{workload: "sim", seed: 1, seconds: 1, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("a golden mismatch must fail operations, not the run: %v", err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("%d of %d operations failed, correct=%v", res.Failed, res.Attempted, res.Correct)
	}
}

func TestServiceAnswersAsPlanned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations behind a loopback server")
	}
	g := testGoldens(t)
	e, err := startService(t.TempDir(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	plan, err := planService(2, 0, g, 60)
	if err != nil {
		t.Fatal(err)
	}
	// exec checks each response's digest and cache_hit flag.
	for i, op := range plan {
		if _, err := e.exec(i, op, nil); err != nil {
			t.Fatalf("request %d (%s): %v", i, op.Kind, err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the printed metrics
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	if strings.Join(e2e, " ") != strings.Join(endToEndMetrics, " ") {
		t.Errorf("end_to_end %v, printed %v", e2e, endToEndMetrics)
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d metrics, the traced run prints %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range bench.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), printed %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
