// Command facsim runs a program on the timing simulator and reports the
// paper's statistics: cycles, IPC, cache behaviour, the per-cause stall
// breakdown, and — when fast address calculation is enabled — prediction
// and bandwidth outcomes.
//
// The input is either a MiniC file (compiled on the fly), an assembly file
// (*.s), or a built-in benchmark (-benchmark NAME).
//
// Usage:
//
//	facsim [-machine fac32] [-falign] [-functional] input.c
//	facsim -machine fac32 -falign -benchmark qsortst
//	facsim -machine fac32 -benchmark compress -json run.json   # RunRecord export
//	facsim -machine fac32 -trace 40 -benchmark qsortst         # annotated trace of issued instructions
//
// -machine names a machine of the experiments table (base32, fac32,
// fac32+rr, fac16, stride, selective, ...), resolved as cmd/experiments
// and facd resolve it, so a -json record pairs with theirs.
//
// -trace consumes the simulator's observability event stream
// (internal/obs): each line is one issued instruction; memory operations
// are annotated with their effective address and, when the simulated
// machine speculated, the verification verdict of that access.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the run's report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("facsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine    = fs.String("machine", string(experiments.MBase32), "machine from the experiments table (base32, fac32, fac32+rr, fac16, stride, selective, ...)")
		falign     = fs.Bool("falign", false, "compile with software support (alignment optimizations)")
		functional = fs.Bool("functional", false, "functional run only (no timing)")
		maxInsts   = fs.Uint64("max-insts", 2_000_000_000, "instruction budget")
		bench      = fs.String("benchmark", "", "run a built-in benchmark")
		showOut    = fs.Bool("show-output", true, "echo program output")
		traceN     = fs.Int("trace", 0, "print the first N issued instructions with predictor annotations")
		hist       = fs.Bool("hist", false, "print the load-latency histogram")
		jsonOut    = fs.String("json", "", "write the run's RunRecord report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "facsim:", err)
		return 1
	}

	cfg, err := experiments.MachineConfig(experiments.Machine(*machine))
	if err != nil {
		return fatal(err)
	}
	tc := workload.BaseToolchain()
	if *falign {
		tc = workload.FACToolchain()
	}
	if *bench == "" && fs.NArg() != 1 {
		return fatal(fmt.Errorf("need exactly one input file (or -benchmark NAME)"))
	}
	// A record names its input as the experiments table does: a built-in
	// benchmark by its name and class, a file by its path.
	name, class := fs.Arg(0), ""
	if *bench != "" {
		w, err := workload.ByName(*bench)
		if err != nil {
			return fatal(err)
		}
		name, class = w.Name, w.Class.String()
	}
	p, err := workload.Load(*bench, fs.Arg(0), tc)
	if err != nil {
		return fatal(err)
	}

	if *traceN > 0 {
		if err := printTrace(stdout, p, cfg, *traceN); err != nil {
			return fatal(err)
		}
		return 0
	}

	if *functional {
		e, err := core.RunFunctional(p, *maxInsts)
		if err != nil {
			return fatal(err)
		}
		if *showOut {
			fmt.Fprint(stdout, e.Out.String())
		}
		fmt.Fprintf(stdout, "\ninstructions  %d\nexit code     %d\n", e.InstCount, e.ExitCode)
		return 0
	}

	res, err := core.Run(p, cfg, *maxInsts)
	if err != nil {
		return fatal(err)
	}
	if *showOut {
		fmt.Fprint(stdout, res.Output)
	}
	st := res.Stats
	fmt.Fprintf(stdout, `
instructions      %d
cycles            %d
IPC               %.3f
loads / stores    %d / %d
branch mispred    %.1f%% (%d of %d)
I-cache miss      %.2f%%
D-cache miss      %.2f%%
store-buf stalls  %d
mem footprint     %d KB
`, st.Insts, st.Cycles, st.IPC(), st.Loads, st.Stores,
		pct(st.BranchMispredicts, st.BranchLookups), st.BranchMispredicts, st.BranchLookups,
		100*st.ICache.MissRatio(), 100*st.DCache.MissRatio(),
		st.StoreBufferFullStalls, res.MemFootprint>>10)

	fmt.Fprintf(stdout, "stall cycles      %d (of %d issue cycles active)\n",
		st.StallTotal(), st.IssueActiveCycles+st.StallTotal())
	for c := obs.StallCause(0); c < obs.NumStallCauses; c++ {
		if n := st.StallCycles[c]; n > 0 {
			fmt.Fprintf(stdout, "  %-14s  %d (%.1f%%)\n", c, n, pct(n, st.StallTotal()))
		}
	}
	if *hist {
		fmt.Fprintf(stdout, "load latency (issue to use, cycles):\n%s", stats.FormatHist(st.LoadLatency, "cyc"))
	}
	if name := cfg.Predictor; name != "" {
		fmt.Fprintf(stdout, `address prediction (%s):
  loads speculated   %d (%.1f%% failed)
  stores speculated  %d (%.1f%% failed)
  bandwidth overhead %.1f%% of references
`, name, st.LoadsSpeculated, 100*st.LoadFailRate(),
			st.StoresSpeculated, 100*st.StoreFailRate(),
			100*st.BandwidthOverhead())
		if n := st.LoadsNoPredict + st.StoresNoPredict; n > 0 {
			fmt.Fprintf(stdout, "  declined           %d (%d loads, %d stores)\n",
				n, st.LoadsNoPredict, st.StoresNoPredict)
		}
	}

	if *jsonOut != "" {
		rep := obs.NewReport("cmd/facsim", "")
		rep.Add(st.Record(name, class, tc.Name, *machine))
		data, err := rep.Encode()
		if err != nil {
			return fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "run record written to %s\n", *jsonOut)
	}
	return 0
}

// traceSink renders the first N issued instructions from the event
// stream. In-order issue delivers instructions in program order, so the
// Nth issue event corresponds to the Nth recorded trace; a
// KindFACPredict event always immediately precedes the issue event of
// the access it belongs to.
type traceSink struct {
	w        io.Writer
	traces   []emu.Trace
	idx      int
	havePred bool
	pred     obs.Event
	// predName and signals label speculation verdicts with the active
	// machine's own name and failure-signal vocabulary.
	predName string
	signals  []string
}

// failName renders a failure mask with the machine's signal names (for
// the fac machine this matches fac.Failure.String exactly).
func (t *traceSink) failName(f fac.Failure) string {
	s := ""
	for i, name := range t.signals {
		if f&(fac.Failure(1)<<i) != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	if s == "" {
		s = f.String()
	}
	return s
}

func (t *traceSink) Event(e obs.Event) {
	switch e.Kind {
	case obs.KindFACPredict:
		t.pred, t.havePred = e, true
	case obs.KindIssue:
		if t.idx >= len(t.traces) {
			return
		}
		tr := t.traces[t.idx]
		line := fmt.Sprintf("%8d  %#08x  %-30s", t.idx, tr.PC, tr.Inst.String())
		if tr.Inst.Op.IsMem() {
			line += fmt.Sprintf("  ea=%#08x", tr.EffAddr)
			if t.havePred && t.pred.PC == e.PC {
				verdict := t.predName + ":ok"
				if t.pred.Flags&obs.FlagNoPredict != 0 {
					verdict = t.predName + ":nopredict"
				} else if t.pred.Fail != 0 {
					verdict = t.predName + ":" + t.failName(t.pred.Fail)
				}
				line += "  " + verdict
			}
		} else if tr.Inst.Op.IsControl() && tr.NextPC != tr.PC+isa.InstBytes {
			line += fmt.Sprintf("  -> %#08x", tr.NextPC)
		}
		fmt.Fprintln(t.w, line)
		t.idx++
		t.havePred = false
	}
}

// printTrace simulates the first n instructions on the configured
// machine, printing each issue with its observability annotations to w.
// It records the first n traces, and the fault that cut them short if
// any, and replays both: the pipeline issues every trace before the
// fault, then returns it.
func printTrace(w io.Writer, p *prog.Program, cfg pipeline.Config, n int) error {
	trs, fault := emu.New(p).Record(n)
	name := cfg.Predictor
	sink := &traceSink{w: w, traces: trs, predName: name, signals: predict.SignalNamesFor(name)}
	_, err := pipeline.RunCtx(nil, cfg.WithStaticTable(p), pipeline.Replay(trs, fault), sink)
	return err
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
