// Command experiments regenerates the paper's evaluation: every table and
// figure of Austin, Pnevmatikatos & Sohi, "Streamlining Data Cache Access
// with Fast Address Calculation" (ISCA 1995), measured on this repository's
// substitute benchmark suite.
//
// Usage:
//
//	experiments                      # run everything
//	experiments -fig2                # one experiment (also -table1 -fig3
//	                                 #   -table3 -table4 -fig6 -table6 -ablate
//	                                 #   -ltb -agi -predictors -sweep)
//	experiments -fig6 -json out.json # also export every timing run as a
//	                                 #   machine-readable obs.RunRecord report
//	experiments -diff old.json new.json  # compare two exported reports and
//	                                 #   print cycle/IPC regressions
//	experiments -cache ~/.fac-cache  # reuse (and extend) a persistent result
//	                                 #   cache shared with the facd daemon; a
//	                                 #   re-run with unchanged inputs
//	                                 #   re-simulates nothing
//	experiments -remote http://host:8080     # run the grid on a daemon or
//	                                 #   fleet coordinator instead of locally
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simsvc"
	"repro/internal/stats"
)

func main() {
	var (
		fig2     = flag.Bool("fig2", false, "Figure 2: impact of load latency on IPC")
		table1   = flag.Bool("table1", false, "Table 1: program reference behavior")
		fig3     = flag.Bool("fig3", false, "Figure 3: load offset distributions")
		table3   = flag.Bool("table3", false, "Table 3: stats without software support")
		table4   = flag.Bool("table4", false, "Table 4: stats with software support")
		fig6     = flag.Bool("fig6", false, "Figure 6: speedups")
		table6   = flag.Bool("table6", false, "Table 6: bandwidth overhead")
		ablate   = flag.Bool("ablate", false, "ablations (tag adder, store buffer, MSHRs, block size)")
		ltbCmp   = flag.Bool("ltb", false, "FAC vs load target buffer comparison (related work)")
		agiCmp   = flag.Bool("agi", false, "FAC vs AGI pipeline organization (related work)")
		predGrid = flag.Bool("predictors", false, "cross-predictor grid: FAC vs the predictor zoo (internal/predict)")
		sweep    = flag.Bool("sweep", false, "cache-size sensitivity sweep")
		jsonOut  = flag.String("json", "", "write every timing run as a RunRecord report to this file")
		diffMode = flag.Bool("diff", false, "compare two RunRecord reports: -diff old.json new.json")
		tol      = flag.Float64("tolerance", 0.005, "relative change reported by -diff")
		cacheDir = flag.String("cache", "", "persistent result cache directory (shared with the facd daemon)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
		remote   = flag.String("remote", "", "run named-machine simulations on this facd daemon or fleet coordinator URL instead of locally")
		token    = flag.String("token", "", "bearer token for -remote")
	)
	flag.Parse()

	if *diffMode {
		if err := runDiff(flag.Args(), *tol); err != nil {
			fmt.Fprintln(os.Stderr, "diff failed:", err)
			os.Exit(1)
		}
		return
	}
	all := !(*fig2 || *table1 || *fig3 || *table3 || *table4 || *fig6 || *table6 || *ablate || *ltbCmp || *agiCmp || *predGrid || *sweep)

	s := experiments.NewSuite()
	if *cacheDir != "" {
		dc, err := simsvc.OpenDiskCache(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cache open failed:", err)
			os.Exit(1)
		}
		s.SetCache(dc)
	}
	if *remote != "" {
		s.SetRemote(&simsvc.Client{Base: *remote, Token: *token})
	}
	steps := []struct {
		on   bool
		name string
		run  func() (string, error)
	}{
		{*table1 || all, "Table 1", render(s.Table1)},
		{*fig2 || all, "Figure 2", render(s.Figure2)},
		{*fig3 || all, "Figure 3", render(s.Figure3)},
		{*table3 || all, "Table 3", render(s.Table3)},
		{*table4 || all, "Table 4", render(s.Table4)},
		{*fig6 || all, "Figure 6", render(s.Figure6)},
		{*table6 || all, "Table 6", render(s.Table6)},
		{*ablate || all, "Ablations", render(s.Ablations)},
		{*ltbCmp || all, "LTB comparison", render(s.CompareLTB)},
		{*agiCmp || all, "AGI comparison", render(s.CompareAGI)},
		{*predGrid || all, "Predictor grid", render(s.ComparePredictors)},
		{*sweep || all, "Cache sweep", render(s.CacheSweep)},
	}
	for _, st := range steps {
		if !st.on {
			continue
		}
		t0 := time.Now()
		out, err := st.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", st.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %.1fs]\n\n", st.name, time.Since(t0).Seconds())
	}

	if *jsonOut != "" {
		rep := s.Report("cmd/experiments")
		data, err := rep.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "json export failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "json export failed:", err)
			os.Exit(1)
		}
		fmt.Printf("[%d run records written to %s]\n", len(rep.Records), *jsonOut)
	}

	if st, ok := s.CacheStats(); ok {
		fmt.Printf("[result cache %s: %d entries, %d hits / %d misses (%.0f%% hit rate)]\n",
			st.Dir, st.Entries, st.Hits, st.Misses, 100*st.HitRate())
	}
	// The incremental-rebuild proof line: an unchanged re-run with -cache
	// prints simulated=0 with every run a cache hit.
	if c := s.Counts(); *cacheDir != "" || *remote != "" {
		fmt.Printf("[runs: simulated=%d remote=%d cache-hits=%d]\n", c.Simulated, c.Remote, c.CacheHits)
	}
}

// render adapts one experiment to a step: run it and render its table.
func render[R interface{ Table() *stats.Table }](experiment func() (R, error)) func() (string, error) {
	return func() (string, error) {
		r, err := experiment()
		if err != nil {
			return "", err
		}
		return r.Table().String(), nil
	}
}

// runDiff loads two exported reports and prints the records whose
// cycles/IPC/stall totals moved by more than tol (docs/OBSERVABILITY.md
// describes the workflow). It exits non-zero via the caller on I/O or
// schema errors; differences alone are not an error.
func runDiff(args []string, tol float64) error {
	if len(args) != 2 {
		return fmt.Errorf("need exactly two report files, got %d", len(args))
	}
	load := func(path string) (*obs.Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return obs.DecodeReport(data)
	}
	oldRep, err := load(args[0])
	if err != nil {
		return err
	}
	newRep, err := load(args[1])
	if err != nil {
		return err
	}
	lines := obs.Diff(oldRep, newRep, tol)
	if len(lines) == 0 {
		fmt.Printf("no differences above %.2f%% (%d records compared)\n", 100*tol, len(newRep.Records))
		return nil
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}
