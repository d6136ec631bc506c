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
	"os"

	"repro/internal/core"
	"repro/internal/fac"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

func main() {
	var (
		bench  = flag.String("benchmark", "", "profile a built-in benchmark")
		falign = flag.Bool("falign", false, "compile with software support")
		block  = flag.Int("block", 32, "cache block size for the predictor (16 or 32)")
		top    = flag.Int("top", 15, "number of top mispredicting sites to show")
		static = flag.Bool("static", false, "add the static FAC-predictability verdict column (internal/staticfac)")
		preds  = flag.Bool("predictors", false, "add per-predictor columns: how each zoo machine (internal/predict) fares on the replaying sites")
	)
	flag.Parse()

	tc := workload.BaseToolchain()
	if *falign {
		tc = workload.FACToolchain()
	}
	if *bench == "" && flag.NArg() != 1 {
		fatal(fmt.Errorf("need exactly one input file (or -benchmark NAME)"))
	}
	p, err := workload.Load(*bench, flag.Arg(0), tc)
	if err != nil {
		fatal(err)
	}
	blockBits := uint(5)
	if *block == 16 {
		blockBits = 4
	}
	geom := fac.Config{BlockBits: blockBits, SetBits: 14}

	// Functional pass: the Section 2 reference-behaviour summary over
	// every executed access.
	prof, _, err := profile.Run(p, 2_000_000_000, geom)
	if err != nil {
		fatal(err)
	}

	// Timing pass: the FAC machine with a site collector on the event
	// stream, attributing each speculative access to its static site.
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"
	cfg.SpeculateRegReg = true // attribute R+R failures too
	cfg.DCache.BlockSize = *block
	sites := obs.NewSiteCollector()
	if _, err := core.RunWithSink(p, cfg, 2_000_000_000, sites); err != nil {
		fatal(err)
	}

	fmt.Printf("instructions %d, loads %d, stores %d\n", prof.Insts, prof.Loads, prof.Stores)
	fmt.Printf("load breakdown: global %.1f%%, stack %.1f%%, general %.1f%%\n",
		100*prof.LoadTypeShare(profile.Global),
		100*prof.LoadTypeShare(profile.Stack),
		100*prof.LoadTypeShare(profile.General))
	fmt.Printf("failure rates (block %d): loads %.1f%%, stores %.1f%% (no-R+R: %.1f%% / %.1f%%)\n\n",
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
				fatal(err)
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
		fmt.Printf("static verdicts: proven_predictable %d, proven_failing %d, unknown %d of %d sites [classified %.1f%%], %d memory-cell value claims\n\n",
			s.ByVerdict[staticfac.VerdictPredictable],
			s.ByVerdict[staticfac.VerdictFailing],
			s.ByVerdict[staticfac.VerdictUnknown],
			s.Sites, 100*s.Classified(), claims)
	}

	list := sites.TopFailing(*top)
	fmt.Printf("top mispredicting sites (speculated accesses on the FAC machine):\n")
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
			fmt.Printf("%-*s ", wd, h)
		} else {
			fmt.Printf("%s", h)
		}
	}
	fmt.Println()
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
				fmt.Printf("%-*s ", wd, c)
			} else {
				fmt.Printf("%s", c)
			}
		}
		fmt.Println()
	}
	if len(list) == 0 {
		fmt.Println("  (none — every access predicted)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facprof:", err)
	os.Exit(1)
}
