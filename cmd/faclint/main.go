// Command faclint statically classifies every load/store site of a program
// by fast-address-calculation predictability (internal/staticfac): for each
// site it proves that the predictor can never fail (proven_predictable),
// that it fails on every speculation (proven_failing), or reports unknown.
// This is the compile-time side of the paper's Section 4 argument: software
// alignment support exists precisely to move sites into the provable class.
//
// Usage:
//
//	faclint [-falign] [-block 32] [-sites] -benchmark compress
//	faclint [-falign] -suite [-min-classified 0.5]
//	faclint [-falign] [-json] input.c | input.s
//	faclint -benchmark queens -explain 0x400344
//	faclint -benchmark queens -explain-first
//
// With -explain PC (or -explain-first) the output is a blame chain: the
// reaching-definition walk from the site's imprecise operands down to the
// root causes the analysis can name — a poisoned global cell and the
// store that poisoned it, an escaped stack slot and the address-taking
// instruction, an untracked syscall or call-clobbered register, or a
// function-entry join.
//
// With -json, output follows the deterministic "fac/static/v1" schema
// (docs/ANALYSIS.md). With -min-classified F the exit status is non-zero
// unless at least fraction F of all sites received a non-unknown verdict —
// the CI smoke gate. The gate holds in every output mode, -explain and
// -explain-first included.
//
// Multiple inputs (-suite, or several files) build and analyze in
// parallel; results print in input order, so the output is byte-identical
// to a sequential run.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fac"
	"repro/internal/prog"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive the full
// CLI in-process and byte-compare output across runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("benchmark", "", "analyze a built-in benchmark")
		suite    = fs.Bool("suite", false, "analyze the full benchmark suite")
		falign   = fs.Bool("falign", false, "compile with software alignment support")
		block    = fs.Int("block", 32, "cache block size for the predictor (a power of two)")
		setBits  = fs.Uint("setbits", 14, "log2 of the direct-mapped cache span in bytes")
		sites    = fs.Bool("sites", false, "print the per-site verdict table")
		jsonOut  = fs.Bool("json", false, "emit the fac/static/v1 JSON report")
		minFrac  = fs.Float64("min-classified", 0, "exit non-zero unless this fraction of sites is classified")
		explain  = fs.String("explain", "", "print the blame chain for the site at this pc (hex)")
		explain1 = fs.Bool("explain-first", false, "print the blame chain for the first unknown site of each program")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "faclint:", err)
		return 1
	}

	if *block <= 0 || *block&(*block-1) != 0 {
		return fatal(fmt.Errorf("-block %d is not a power of two", *block))
	}
	geom := fac.Config{BlockBits: uint(bits.TrailingZeros(uint(*block))), SetBits: *setBits}
	if err := geom.Validate(); err != nil {
		return fatal(err)
	}
	tc, toolchain := workload.BaseToolchain(), "base"
	if *falign {
		tc, toolchain = workload.FACToolchain(), "falign"
	}

	// A job names one input and knows how to build it; build and analysis
	// both run inside the worker so the expensive work parallelizes.
	type job struct {
		name  string
		build func() (*prog.Program, error)
	}
	var jobs []job
	switch {
	case *suite:
		for _, w := range workload.All() {
			w := w
			jobs = append(jobs, job{w.Name, func() (*prog.Program, error) {
				p, err := workload.Build(w, tc)
				if err != nil {
					return nil, fmt.Errorf("build %s: %w", w.Name, err)
				}
				return p, nil
			}})
		}
	case *bench != "":
		jobs = append(jobs, job{*bench, func() (*prog.Program, error) {
			return workload.Load(*bench, "", tc)
		}})
	default:
		if fs.NArg() == 0 {
			return fatal(fmt.Errorf("need -benchmark NAME, -suite, or input files"))
		}
		for _, arg := range fs.Args() {
			arg := arg
			name := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
			jobs = append(jobs, job{name, func() (*prog.Program, error) {
				return workload.Load("", arg, tc)
			}})
		}
	}

	var explainPC uint64
	if *explain != "" {
		var err error
		explainPC, err = strconv.ParseUint(*explain, 0, 32)
		if err != nil {
			return fatal(fmt.Errorf("bad -explain pc %q: %w", *explain, err))
		}
	}

	// Fan the jobs out over a bounded worker pool. Results land in a
	// per-job slot, so the reporting loop below walks them in input order
	// and the output is identical to a sequential run.
	type result struct {
		p   *prog.Program
		a   *staticfac.Analysis
		err error
	}
	results := make([]result, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p, err := jobs[i].build()
				if err != nil {
					results[i].err = err
					continue
				}
				results[i] = result{p: p, a: staticfac.Analyze(p, geom)}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	explaining := *explain != "" || *explain1
	var report *staticfac.Report
	var total, classified, ivRefined int
	for i, jb := range jobs {
		res := results[i]
		if res.err != nil {
			return fatal(res.err)
		}
		a := res.a
		s := a.Summary()
		total += s.Sites
		classified += s.Sites - s.ByVerdict[staticfac.VerdictUnknown]
		ivRefined += s.IvRefined
		if explaining {
			pc := uint32(explainPC)
			if *explain1 {
				first, ok := a.FirstUnknown()
				if !ok {
					fmt.Fprintf(stdout, "%s: no unknown sites\n", jb.name)
					continue
				}
				pc = first
			}
			text, ok := a.Explain(pc)
			if !ok {
				return fatal(fmt.Errorf("%s: %#08x is not a memory-access site", jb.name, pc))
			}
			if len(jobs) > 1 {
				fmt.Fprintf(stdout, "%s:\n", jb.name)
			}
			fmt.Fprint(stdout, text)
			continue
		}
		if *jsonOut {
			if report == nil {
				report = staticfac.NewReport(a)
			}
			report.Add(jb.name, toolchain, a)
			continue
		}
		fmt.Fprintf(stdout, "%-10s %-7s sites %4d: proven_predictable %4d, proven_failing %3d, unknown %4d  [classified %5.1f%%]\n",
			jb.name, toolchain, s.Sites,
			s.ByVerdict[staticfac.VerdictPredictable],
			s.ByVerdict[staticfac.VerdictFailing],
			s.ByVerdict[staticfac.VerdictUnknown],
			100*s.Classified())
		if *sites {
			printSites(stdout, a)
		}
	}
	frac := 0.0
	if total > 0 {
		frac = float64(classified) / float64(total)
	}
	switch {
	case explaining:
		// The blame chains are the whole output.
	case *jsonOut && report != nil:
		b, err := report.Encode()
		if err != nil {
			return fatal(err)
		}
		stdout.Write(b)
	case len(jobs) > 1:
		fmt.Fprintf(stdout, "%-10s %-7s sites %4d classified %d  [%.1f%%]  interval-refined %d\n",
			"TOTAL", toolchain, total, classified, 100*frac, ivRefined)
	}
	if *minFrac > 0 && (total == 0 || frac < *minFrac) {
		fmt.Fprintf(stderr, "faclint: classified fraction %.3f below required %.3f (%d/%d sites)\n",
			frac, *minFrac, classified, total)
		return 1
	}
	return 0
}

func printSites(w io.Writer, p *staticfac.Analysis) {
	fmt.Fprintf(w, "  %-10s %-19s %-22s %-28s %-13s %-13s %s\n",
		"pc", "verdict", "can-fail", "instruction", "base", "offset", "function")
	for i := range p.Sites {
		s := &p.Sites[i]
		canFail := "-"
		if s.CanFail != 0 {
			canFail = s.CanFail.String()
		}
		fn := s.Func
		if !s.Reached {
			fn += " (dead)"
		}
		fmt.Fprintf(w, "  %#08x  %-19s %-22s %-28s %-13s %-13s %s\n",
			s.PC, s.Verdict, canFail, s.Inst.String(), s.Base, s.Offset, fn)
	}
}
