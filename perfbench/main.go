// Command perfbench is the repository's benchmark. It drives one workload
// (sim, regen or service) in-process through the repository's
// packages as a closed loop with one client, checks every operation
// against committed golden digests, and prints the workload's metrics;
// the last line of its output is one JSON result object. Build and run it
// from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload sim --seed 1 --seconds 25 --trace 0
//
// --trace 1 makes a traced run that prints the per-layer ledger instead of
// the end-to-end metrics. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string // directory for the trace file and temporary state
}

// maxProcs caps the Go scheduler's threads, and with them regen's suite
// workers, which follow GOMAXPROCS, so every host runs the same work.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(maxProcs)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: sim, regen or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed choosing the order of operations and the service's request mix")
	fs.IntVar(&cfg.seconds, "seconds", 25, "about how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the trace file and temporary state")
	gold := fs.String("write-goldens", "", "recompute the golden digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gold != "" {
		if err := writeGoldens(*gold, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.traced = *trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, lines, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setupRepeats is how many times a run sets up its environment: once
// before the first operation and again at evenly spaced points of the
// plan, so that the repeats span the run rather than one moment of it.
// Like an operation kind, set-up is scored by its minimum: the host's
// slow phases make one set-up take up to 1.7 times as long, and a median
// would follow the share of the run the host spent in them.
const setupRepeats = 31

// maxErrorsLogged bounds the failed operations described on stderr.
const maxErrorsLogged = 5

// settleHeap names the workloads whose operations start from a collected
// heap, so that no operation pays for collecting another's garbage and
// peak RSS does not depend on the order of operations. Service reads take
// a fraction of a millisecond and allocate little; a collection before
// each would cost more than the reads.
var settleHeap = map[string]bool{"sim": true, "regen": true}

// setup prepares the workload's environment from a collected heap and
// times only that. The goldens and the plan are the benchmark's own and
// are made before.
func setup(cfg config, plan []planOp, g *goldens) (env, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := setupEnv(cfg.workload, plan, g, cfg.out)
	if err != nil {
		return nil, 0, fmt.Errorf("setup %s: %w", cfg.workload, err)
	}
	return e, time.Since(t0), nil
}

// runWorkload runs the plan once and computes the run's metrics.
func runWorkload(cfg config, stderr io.Writer) (result, []string, error) {
	g, err := loadGoldens()
	if err != nil {
		return result{}, nil, err
	}
	plan, err := makePlan(cfg.workload, cfg.seed, cfg.seconds, g)
	if err != nil {
		return result{}, nil, err
	}
	e, d, err := setup(cfg, plan, g)
	if err != nil {
		return result{}, nil, err
	}
	defer e.close()
	setups := []time.Duration{d}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	samples := make([]sample, 0, len(plan))
	failed, next := 0, 1
	for i, op := range plan {
		for next < setupRepeats && i == next*len(plan)/setupRepeats {
			extra, d, err := setup(cfg, plan, g)
			if err != nil {
				return result{}, nil, err
			}
			extra.close()
			setups = append(setups, d)
			next++
		}
		var t *tracer
		if op.Round%2 == 0 {
			t = tr // traced runs leave odd rounds bare to measure the overhead
		}
		if settleHeap[cfg.workload] {
			runtime.GC()
		}
		d, err := e.exec(i, op, t)
		if err != nil {
			if failed < maxErrorsLogged {
				fmt.Fprintf(stderr, "perfbench: op %d (%s) failed: %v\n", i, op.Kind, err)
			}
			failed++
		}
		samples = append(samples, sample{kind: op.Kind, dur: d, traced: t != nil, ok: err == nil})
	}

	res := result{Correct: failed == 0, Attempted: len(plan), Failed: failed, Metrics: map[string]metric{}}
	lines := []string{fmt.Sprintf("perfbench %s seed=%d seconds=%d trace=%v: %d operations, %d failed (%.2f%%)",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, len(plan), failed, 100*float64(failed)/float64(len(plan)))}
	if !cfg.traced {
		endToEnd(cfg, g, samples, setups, &res, &lines)
		return res, lines, nil
	}

	bare := func(s sample) bool { return !s.traced }
	traced := func(s sample) bool { return s.traced }
	lines = append(lines, workloadLines(cfg.workload, g, samples, bare)...)
	ms := sortedMS(samples, bare)
	tail := tailPercentile(len(ms))
	overhead := geomeanMS(kindMinima(samples, traced)) / geomeanMS(kindMinima(samples, bare))
	client := map[string]float64{
		"client.p50_ms":         percentile(ms, 50),
		"client.tail_ms":        percentile(ms, tail),
		"client.tail_pct":       tail,
		"client.samples":        float64(len(samples)),
		"client.failed":         float64(failed),
		"client.trace_overhead": overhead,
	}
	lines = append(lines, fmt.Sprintf("client tail is p%g over %d untraced samples", tail, len(ms)))
	lines = append(lines, spanLines(tr.spans)...)
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, nil, err
	}
	lines = append(lines, fmt.Sprintf("%d spans written to %s", tr.count(), path))

	layers, err := ledger(ledgerPrograms, cfg.out, g)
	if err != nil {
		return result{}, nil, fmt.Errorf("ledger: %w", err)
	}
	for k, v := range client {
		layers[k] = v
	}
	for _, m := range layerMetrics {
		v, ok := layers[m.name]
		if !ok {
			return result{}, nil, fmt.Errorf("ledger: metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		lines = append(lines, fmt.Sprintf("%-30s %14.6g %s", m.name, v, m.unit))
	}
	return res, lines, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(cfg config, g *goldens, samples []sample, setups []time.Duration, res *result, lines *[]string) {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	set := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		*lines = append(*lines, fmt.Sprintf("%-14s %14.6g %s", name, v, unit))
	}
	set("op_ms", "ms", geomeanMS(kindMinima(samples, nil)))
	sort.Float64s(secs)
	set("setup_s", "s", secs[0])
	*lines = append(*lines, fmt.Sprintf("setup repeated %d times: median %.6g s, max %.6g s", len(secs), median(secs), secs[len(secs)-1]))
	set("peak_rss_mb", "MB", peakRSSMB())
	*lines = append(*lines, workloadLines(cfg.workload, g, samples, nil)...)
}

// workloadLines prints the workload's own headline metrics.
func workloadLines(workload string, g *goldens, samples []sample, keep func(sample) bool) []string {
	minima := kindMinima(samples, keep)
	var out []string
	add := func(name, unit string, v float64, note string) {
		out = append(out, fmt.Sprintf("%-14s %14.6g %-8s %s", name, v, unit, note))
	}
	switch workload {
	case "sim":
		insts := make(map[string]uint64)
		for k := range minima {
			insts[k] = g.Records[k].Insts
		}
		add("minsts_per_s", "Minst/s", minstsPerSec(minima, insts), fmt.Sprintf("over %d kinds", len(minima)))
	case "regen":
		add("regen_s", "s", geomeanMS(minima)/1000, "minimum cold CompareLTB")
	case "service":
		hits, misses := map[string]time.Duration{}, map[string]time.Duration{}
		for k, d := range minima {
			if strings.HasPrefix(k, "hit|") {
				hits[k] = d
			} else {
				misses[k] = d
			}
		}
		add("hit_ms", "ms", geomeanMS(hits), fmt.Sprintf("geomean over %d read kinds", len(hits)))
		add("miss_ms", "ms", geomeanMS(misses), fmt.Sprintf("geomean over %d write kinds", len(misses)))
	}
	return out
}

// spanLines summarizes self time per span name.
func spanLines(spans []span) []string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{"self time by span:"}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-28s %12.3f ms", n, ms(self[n])))
	}
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
