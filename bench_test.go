// Benchmark harness: simulator throughput on the compress workload
// (BenchmarkPipeline, BenchmarkEmulator, BenchmarkTimingSimulator) and
// toolchain speed (BenchmarkCompiler). BenchmarkPipeline also writes the
// BENCH_pipeline.json perf-trajectory artifact (docs/PERFORMANCE.md).
// The evaluation's tables are not benchmarked here: cmd/experiments
// regenerates them, and internal/experiments' TestTablesGolden pins them.
package repro

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// BenchmarkPipeline is the repo's perf-trajectory benchmark: it measures
// timing-simulator throughput (cycles simulated per second) on the
// compress workload for the baseline and FAC machines, and writes the
// run records plus throughput metrics to BENCH_pipeline.json — the
// artifact successive PRs diff (`go run ./cmd/experiments -diff`) to
// detect simulator performance or statistics regressions. Set BENCH_OUT
// to redirect the artifact (CI smoke runs do, so a measurement pass
// never clobbers the committed trajectory file); see docs/PERFORMANCE.md.
func BenchmarkPipeline(b *testing.B) {
	b.ReportAllocs()
	w, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Build(w, workload.BaseToolchain())
	if err != nil {
		b.Fatal(err)
	}
	machines := []experiments.Machine{experiments.MBase32, experiments.MFAC32}
	rep := obs.NewReport("go test -bench BenchmarkPipeline", runtime.Version())
	var cycles, insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range machines {
			cfg, err := experiments.MachineConfig(m)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(p, cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Stats.Cycles
			insts += res.Stats.Insts
			if i == 0 {
				rep.Add(res.Stats.Record(w.Name, w.Class.String(), "base", string(m)))
			}
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(cycles)/sec/1e6, "Mcycles/s")
	b.ReportMetric(float64(insts)/sec/1e6, "Minsts/s")
	rep.Metrics = map[string]float64{
		"mcycles_per_sec": float64(cycles) / sec / 1e6,
		"minsts_per_sec":  float64(insts) / sec / 1e6,
	}
	data, err := rep.Encode()
	if err != nil {
		b.Fatal(err)
	}
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		out = "BENCH_pipeline.json"
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEmulator measures raw functional simulation speed
// (instructions per second) on the compress workload.
func BenchmarkEmulator(b *testing.B) {
	w, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Build(w, workload.BaseToolchain())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		e := emu.New(p)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		insts += e.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkTimingSimulator measures cycle-level simulation speed on the
// compress workload with fast address calculation enabled.
func BenchmarkTimingSimulator(b *testing.B) {
	w, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Build(w, workload.BaseToolchain())
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(p, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Stats.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkCompiler measures end-to-end compile+assemble+link speed on the
// largest workload source.
func BenchmarkCompiler(b *testing.B) {
	w, err := workload.ByName("nbody")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Build(w, workload.FACToolchain()); err != nil {
			b.Fatal(err)
		}
	}
}
