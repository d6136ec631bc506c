// Package core is the public facade of the fast-address-calculation study:
// it assembles and links programs, runs them on the timing simulator with or
// without fast address calculation, and returns combined functional +
// timing results. The experiment harness, the examples, and the benchmark
// suite are all built on this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/prog"
)

// Build assembles one translation unit and links it.
func Build(source string, link prog.Config) (*prog.Program, error) {
	o, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return prog.Link(o, link)
}

// Result combines the functional outcome of a run with its timing.
type Result struct {
	Stats    pipeline.Stats
	Output   string
	ExitCode int32
	// MemFootprint is the number of data bytes touched (whole pages), the
	// paper's "memory usage" metric.
	MemFootprint uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// traceSource adapts the emulator to the pipeline's Source interface,
// writing each trace in place into the pipeline's batch buffer.
type traceSource struct {
	e *emu.Emulator
}

func (t *traceSource) NextBatch(buf []emu.Trace) (int, error) {
	n := 0
	for n < len(buf) && !t.e.Halted {
		if err := t.e.StepInto(&buf[n]); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Run executes the program on the timing simulator. maxInsts bounds the
// dynamic instruction count (0 = unlimited).
func Run(p *prog.Program, machine pipeline.Config, maxInsts uint64) (Result, error) {
	return RunWithSink(p, machine, maxInsts, nil)
}

// RunWithSink executes the program on the timing simulator with an
// observability sink attached (nil disables the event stream; see
// internal/obs). cmd/facprof and cmd/facsim -trace are built on this.
func RunWithSink(p *prog.Program, machine pipeline.Config, maxInsts uint64, sink obs.Sink) (Result, error) {
	return RunCtx(nil, p, machine, maxInsts, sink)
}

// RunCtx is RunWithSink with cancellation: a non-nil context's deadline
// or cancellation aborts the simulation's cycle loop promptly with an
// error wrapping ctx.Err(). The simulation service (internal/simsvc)
// uses this for per-job deadlines and client-disconnect cancellation; a
// nil ctx disables the checks at zero cost.
func RunCtx(ctx context.Context, p *prog.Program, machine pipeline.Config, maxInsts uint64, sink obs.Sink) (Result, error) {
	// The selective machine consults staticfac verdicts baked per linked
	// program; this is the layer that has the program in hand, so the bake
	// happens here unless the caller supplied a table already.
	if machine.Predictor == "selective" && machine.StaticTable == nil {
		machine.StaticTable = predict.BuildStaticTable(p, machine.FACGeometry())
	}
	e := emu.New(p)
	e.MaxInsts = maxInsts
	stats, err := pipeline.RunCtx(ctx, machine, &traceSource{e}, sink)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Stats:        stats,
		Output:       e.Out.String(),
		ExitCode:     e.ExitCode,
		MemFootprint: e.Mem.Footprint(),
	}, nil
}

// RunFunctional executes the program on the emulator alone (no timing),
// returning the final emulator state for profiling and output checks.
func RunFunctional(p *prog.Program, maxInsts uint64) (*emu.Emulator, error) {
	e := emu.New(p)
	e.MaxInsts = maxInsts
	if err := e.Run(); err != nil {
		return e, err
	}
	return e, nil
}

// BuildAndRun is the one-call convenience: assemble, link, simulate.
func BuildAndRun(source string, link prog.Config, machine pipeline.Config, maxInsts uint64) (Result, error) {
	p, err := Build(source, link)
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	return Run(p, machine, maxInsts)
}
