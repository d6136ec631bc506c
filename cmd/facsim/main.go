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
//	facsim [-predictor fac] [-rr] [-falign] [-block 32] [-functional] input.c
//	facsim -predictor fac -falign -benchmark qsortst
//	facsim -predictor fac -benchmark compress -json run.json   # RunRecord export
//	facsim -predictor fac -trace 40 -benchmark qsortst         # annotated trace of issued instructions
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
	var (
		predName   = flag.String("predictor", "", "address-prediction machine (fac, pcax, stride, selective)")
		rr         = flag.Bool("rr", false, "speculate register+register accesses")
		falign     = flag.Bool("falign", false, "compile with software support (alignment optimizations)")
		block      = flag.Int("block", 32, "data cache block size (16 or 32)")
		functional = flag.Bool("functional", false, "functional run only (no timing)")
		maxInsts   = flag.Uint64("max-insts", 2_000_000_000, "instruction budget")
		bench      = flag.String("benchmark", "", "run a built-in benchmark")
		showOut    = flag.Bool("show-output", true, "echo program output")
		traceN     = flag.Int("trace", 0, "print the first N issued instructions with predictor annotations")
		hist       = flag.Bool("hist", false, "print the load-latency histogram")
		jsonOut    = flag.String("json", "", "write the run's RunRecord report to this file")
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

	cfg := pipeline.DefaultConfig()
	cfg.Predictor = *predName
	cfg.SpeculateRegReg = *rr
	cfg.DCache.BlockSize = *block
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if *traceN > 0 {
		if err := printTrace(os.Stdout, p, cfg, *traceN); err != nil {
			fatal(err)
		}
		return
	}

	if *functional {
		e, err := core.RunFunctional(p, *maxInsts)
		if err != nil {
			fatal(err)
		}
		if *showOut {
			fmt.Print(e.Out.String())
		}
		fmt.Printf("\ninstructions  %d\nexit code     %d\n", e.InstCount, e.ExitCode)
		return
	}

	res, err := core.Run(p, cfg, *maxInsts)
	if err != nil {
		fatal(err)
	}
	if *showOut {
		fmt.Print(res.Output)
	}
	st := res.Stats
	fmt.Printf(`
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

	fmt.Printf("stall cycles      %d (of %d issue cycles active)\n",
		st.StallTotal(), st.IssueActiveCycles+st.StallTotal())
	for c := obs.StallCause(0); c < obs.NumStallCauses; c++ {
		if n := st.StallCycles[c]; n > 0 {
			fmt.Printf("  %-14s  %d (%.1f%%)\n", c, n, pct(n, st.StallTotal()))
		}
	}
	if *hist {
		fmt.Printf("load latency (issue to use, cycles):\n%s", stats.FormatHist(st.LoadLatency, "cyc"))
	}
	if name := cfg.Predictor; name != "" {
		fmt.Printf(`address prediction (%s):
  loads speculated   %d (%.1f%% failed)
  stores speculated  %d (%.1f%% failed)
  bandwidth overhead %.1f%% of references
`, name, st.LoadsSpeculated, 100*st.LoadFailRate(),
			st.StoresSpeculated, 100*st.StoreFailRate(),
			100*st.BandwidthOverhead())
		if n := st.LoadsNoPredict + st.StoresNoPredict; n > 0 {
			fmt.Printf("  declined           %d (%d loads, %d stores)\n",
				n, st.LoadsNoPredict, st.StoresNoPredict)
		}
	}

	if *jsonOut != "" {
		name := *bench
		if name == "" {
			name = flag.Arg(0)
		}
		rep := obs.NewReport("cmd/facsim", "")
		rep.Add(st.Record(name, "", tc.Name, machineName(cfg)))
		data, err := rep.Encode()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("run record written to %s\n", *jsonOut)
	}
}

// machineName summarizes the CLI-configured machine for the RunRecord.
func machineName(cfg pipeline.Config) string {
	name := "base"
	if cfg.Predictor != "" {
		name = cfg.Predictor
	}
	name += fmt.Sprintf("%d", cfg.DCache.BlockSize)
	if cfg.SpeculateRegReg {
		name += "+rr"
	}
	return name
}

// traceSink renders the first N issued instructions from the event
// stream. In-order issue delivers instructions in program order, so the
// Nth issue event corresponds to the Nth trace the source produced; a
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

// limitedSource feeds at most n dynamic instructions to the pipeline,
// recording each trace for the sink to render.
type limitedSource struct {
	e    *emu.Emulator
	n    int
	sink *traceSink
}

func (s *limitedSource) NextBatch(buf []emu.Trace) (int, error) {
	if len(buf) > s.n {
		buf = buf[:s.n]
	}
	n := 0
	var err error
	for n < len(buf) && !s.e.Halted {
		if err = s.e.StepInto(&buf[n]); err != nil {
			break
		}
		n++
	}
	s.n -= n
	s.sink.traces = append(s.sink.traces, buf[:n]...)
	return n, err
}

// printTrace simulates the first n instructions on the configured
// machine, printing each issue with its observability annotations to w.
func printTrace(w io.Writer, p *prog.Program, cfg pipeline.Config, n int) error {
	name := cfg.Predictor
	sink := &traceSink{w: w, predName: name, signals: predict.SignalNamesFor(name)}
	src := &limitedSource{e: emu.New(p), n: n, sink: sink}
	_, err := pipeline.RunObserved(cfg.WithStaticTable(p), src, sink)
	return err
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facsim:", err)
	os.Exit(1)
}
