// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment end to end
// (building, profiling, and simulating the full workload suite) and reports
// the experiment's headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints the measured analogues of the
// paper's results alongside the harness cost.
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

// BenchmarkTable1 regenerates Table 1 (program reference behaviour) and
// reports the suite-wide general-pointer share of loads.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var general, loads float64
		for _, row := range r.Rows {
			general += row.GeneralPct * float64(row.Refs)
			loads += float64(row.Refs)
		}
		b.ReportMetric(100*general/loads, "%general-loads")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (impact of load latency on IPC) and
// reports the weighted-average integer IPC gain of 1-cycle loads.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IntAvg[1]/r.IntAvg[0], "int-1cyc-gain")
		b.ReportMetric(r.IntAvg[2]/r.IntAvg[0], "int-perfect-gain")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (load offset distributions) and
// reports the zero-offset share of general-pointer loads (averaged over the
// plotted benchmarks).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		var zero float64
		var n int
		for _, sr := range r.Series {
			if sr.RefType.String() == "general" {
				zero += sr.Cumulative[0]
				n++
			}
		}
		b.ReportMetric(100*zero/float64(n), "%zero-offset-general")
	}
}

// BenchmarkTable3 regenerates Table 3 (statistics and prediction failure
// rates without software support) and reports the mean load failure rate.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		var fail float64
		for _, row := range r.Rows {
			fail += row.LoadFail32
		}
		b.ReportMetric(100*fail/float64(len(r.Rows)), "%load-fail-hw")
	}
}

// BenchmarkTable4 regenerates Table 4 (software support) and reports the
// mean remaining load failure rate and its no-R+R column.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var all, norr float64
		for _, row := range r.Rows {
			all += row.LoadFailAll
			norr += row.LoadFailNoRR
		}
		n := float64(len(r.Rows))
		b.ReportMetric(100*all/n, "%load-fail-sw")
		b.ReportMetric(100*norr/n, "%load-fail-sw-noRR")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (speedups) and reports the paper's
// headline numbers: weighted-average integer and FP speedups with hardware
// only and with software support (32-byte blocks).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IntAvg[2], "int-speedup-hw")
		b.ReportMetric(r.IntAvg[3], "int-speedup-hwsw")
		b.ReportMetric(r.FPAvg[2], "fp-speedup-hw")
		b.ReportMetric(r.FPAvg[3], "fp-speedup-hwsw")
	}
}

// BenchmarkTable6 regenerates Table 6 (bandwidth overhead) and reports the
// worst-case overhead with software support, with and without R+R
// speculation.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		maxRR, maxNoRR := 0.0, 0.0
		for _, row := range r.Rows {
			if row.SWRR > maxRR {
				maxRR = row.SWRR
			}
			if row.SWNoRR > maxNoRR {
				maxNoRR = row.SWNoRR
			}
		}
		b.ReportMetric(100*maxRR, "%max-bw-sw-rr")
		b.ReportMetric(100*maxNoRR, "%max-bw-sw-norr")
	}
}

// BenchmarkAblations regenerates the ablation study and reports the
// geometric-mean cost of restricting the cache to one outstanding miss.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		r, err := s.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		var mshr float64
		for _, row := range r.Rows {
			mshr += row.MSHR1Rel
		}
		b.ReportMetric(mshr/float64(len(r.Rows)), "mshr1-rel-cycles")
	}
}

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

// BenchmarkRelatedWork regenerates the Section 6 comparisons: fast address
// calculation vs the Golden-Mudge load target buffer, and the LUI vs AGI
// pipeline organizations.
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		ltbRes, err := s.CompareLTB()
		if err != nil {
			b.Fatal(err)
		}
		var facWins int
		for _, row := range ltbRes.Rows {
			if row.FACSW >= row.LTBLast {
				facWins++
			}
		}
		b.ReportMetric(float64(facWins), "fac-beats-ltb-last")
		agiRes, err := s.CompareAGI()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(agiRes.IntAvg[0], "agi-int-speedup")
		b.ReportMetric(agiRes.IntAvg[2], "facsw-int-speedup")
	}
}
