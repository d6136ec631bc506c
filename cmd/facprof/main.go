// Command facprof attributes fast-address-calculation mispredictions to
// individual load/store instructions: for a program (or built-in benchmark)
// it reports the reference-behaviour summary and the top mispredicting
// instruction sites with disassembly, failure signals, and the enclosing
// function — the analysis the paper's Section 5.4 performed to diagnose
// "array index failures" and "domain-specific storage allocators".
//
// Site attribution consumes the timing simulator's observability event
// stream (internal/obs): the program runs on the FAC machine with an
// obs.SiteCollector attached, so the table reflects the accesses the
// machine actually speculated (register+register speculation is enabled
// to attribute that failure class too). The header's failure rates come
// from the functional profile over every executed access, so the two can
// differ slightly: an access in the shadow of a misprediction does not
// speculate and therefore produces no event.
//
// Usage:
//
//	facprof [-falign] [-block 32] [-top 20] -benchmark compress
//	facprof [-falign] input.c
//	facprof -predictors -benchmark compress   # per-site comparison against
//	                                          # the predictor zoo machines
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("facprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("benchmark", "", "profile a built-in benchmark")
		falign = fs.Bool("falign", false, "compile with software support")
		block  = fs.Int("block", 32, "cache block size of the FAC machine and its predictor (a power of two)")
		top    = fs.Int("top", 15, "number of top mispredicting sites to show")
		static = fs.Bool("static", false, "add the static FAC-predictability verdict column (internal/staticfac)")
		preds  = fs.Bool("predictors", false, "add per-predictor columns: how each zoo machine (internal/predict) fares on the replaying sites")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "facprof:", err)
		return 1
	}

	// The FAC machine. Its data cache geometry is the predictor's, for the
	// functional pass, the timing pass and the static verdicts alike.
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"
	cfg.SpeculateRegReg = true // attribute R+R failures too
	cfg.DCache.BlockSize = *block
	if err := cfg.Validate(); err != nil {
		return fatal(err)
	}

	tc := workload.BaseToolchain()
	if *falign {
		tc = workload.FACToolchain()
	}
	if *bench == "" && fs.NArg() != 1 {
		return fatal(fmt.Errorf("need exactly one input file (or -benchmark NAME)"))
	}
	p, err := workload.Load(*bench, fs.Arg(0), tc)
	if err != nil {
		return fatal(err)
	}

	// Functional pass: the Section 2 reference-behaviour summary over
	// every executed access.
	prof, _, err := profile.Run(p, 2_000_000_000, cfg.FACGeometry())
	if err != nil {
		return fatal(err)
	}

	// Timing pass: the site collector on the event stream attributes each
	// speculative access to its static site.
	sites := obs.NewSiteCollector()
	if _, err := core.RunWithSink(p, cfg, 2_000_000_000, sites); err != nil {
		return fatal(err)
	}

	fmt.Fprintf(stdout, "instructions %d, loads %d, stores %d\n", prof.Insts, prof.Loads, prof.Stores)
	fmt.Fprintf(stdout, "load breakdown: global %.1f%%, stack %.1f%%, general %.1f%%\n",
		100*prof.LoadTypeShare(profile.Global),
		100*prof.LoadTypeShare(profile.Stack),
		100*prof.LoadTypeShare(profile.General))
	fmt.Fprintf(stdout, "failure rates (block %d): loads %.1f%%, stores %.1f%% (no-R+R: %.1f%% / %.1f%%)\n\n",
		*block, 100*prof.LoadFailRate(0), 100*prof.StoreFailRate(0),
		100*prof.LoadFailRateNoRR(0), 100*prof.StoreFailRateNoRR(0))

	// Optional cross-predictor passes: each zoo machine replays the same
	// program with its own site collector, so every FAC-replaying site can
	// be compared against what the alternatives would have done there.
	altNames := []string{"pcax", "stride", "selective"}
	altSites := make(map[string]*obs.SiteCollector)
	if *preds {
		for _, name := range altNames {
			acfg := pipeline.DefaultConfig()
			acfg.Predictor = name
			acfg.SpeculateRegReg = true
			acfg.DCache.BlockSize = *block
			sc := obs.NewSiteCollector()
			if _, err := core.RunWithSink(p, acfg, 2_000_000_000, sc); err != nil {
				return fatal(err)
			}
			altSites[name] = sc
		}
	}

	var analysis *staticfac.Analysis
	if *static {
		analysis = staticfac.Analyze(p, cfg.FACGeometry())
		s := analysis.Summary()
		claims := 0
		for i := range analysis.Sites {
			if analysis.Sites[i].CellKind != staticfac.CellNone {
				claims++
			}
		}
		fmt.Fprintf(stdout, "static verdicts: proven_predictable %d, proven_failing %d, unknown %d of %d sites [classified %.1f%%], %d memory-cell value claims\n\n",
			s.ByVerdict[staticfac.VerdictPredictable],
			s.ByVerdict[staticfac.VerdictFailing],
			s.ByVerdict[staticfac.VerdictUnknown],
			s.Sites, 100*s.Classified(), claims)
	}

	list := sites.TopFailing(*top)
	fmt.Fprintf(stdout, "top mispredicting sites (speculated accesses on the FAC machine):\n")
	header := []string{"pc", "fails", "rate", "signals"}
	if *static {
		header = append(header, "static")
	}
	if *preds {
		header = append(header, altNames...)
		header = append(header, "best")
	}
	header = append(header, "instruction", "function")
	widths := map[string]int{"pc": 10, "fails": 10, "rate": 8, "signals": 24,
		"static": 15, "pcax": 9, "stride": 9, "selective": 9, "best": 10, "instruction": 28}
	for _, h := range header {
		if wd := widths[h]; wd > 0 {
			fmt.Fprintf(stdout, "%-*s ", wd, h)
		} else {
			fmt.Fprintf(stdout, "%s", h)
		}
	}
	fmt.Fprintln(stdout)
	for _, s := range list {
		in, _ := p.InstAt(s.PC)
		cells := []string{
			fmt.Sprintf("%#08x", s.PC),
			fmt.Sprintf("%d", s.Fails),
			fmt.Sprintf("%5.1f%%", 100*s.FailRate()),
			s.FailMask.String(),
		}
		if *static {
			verdict := "-"
			if site := analysis.SiteAt(s.PC); site != nil {
				verdict = site.Verdict.String()
			}
			cells = append(cells, verdict)
		}
		if *preds {
			// Which predictor would have covered this replaying site: a
			// machine covers it when it speculates there and mispredicts
			// less often than the FAC machine did.
			best, bestRate := "none", s.FailRate()
			for _, name := range altNames {
				alt := altSites[name].Sites[s.PC]
				switch {
				case alt == nil || alt.Speculated+alt.NoPredict == 0:
					cells = append(cells, "-")
				case alt.Speculated == 0:
					cells = append(cells, "declined")
				default:
					cells = append(cells, fmt.Sprintf("%5.1f%%", 100*alt.FailRate()))
					if alt.FailRate() < bestRate {
						best, bestRate = name, alt.FailRate()
					}
				}
			}
			cells = append(cells, best)
		}
		cells = append(cells, in.String(), p.FuncName(s.PC))
		for i, c := range cells {
			if wd := widths[header[i]]; wd > 0 {
				fmt.Fprintf(stdout, "%-*s ", wd, c)
			} else {
				fmt.Fprintf(stdout, "%s", c)
			}
		}
		fmt.Fprintln(stdout)
	}
	if len(list) == 0 {
		fmt.Fprintln(stdout, "  (none — every access predicted)")
	}
	return 0
}
