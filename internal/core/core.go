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

// The emulate-ahead ring: ringChunks chunks of chunkLen traces. A trace
// is 48 bytes, so the ring is 288 KiB, allocated once per run. Shorter
// chunks leave the timing model waiting on goroutine wake-ups; longer
// ones or more of them measured no faster (docs/PERFORMANCE.md).
const (
	chunkLen   = 2048
	ringChunks = 3
)

// chunk is one slot of the ring: n traces in stream order, then err when
// the emulator faulted on the next instruction. A chunk with n < chunkLen
// is the stream's last.
type chunk struct {
	t   []emu.Trace
	n   int
	err error
}

// aheadSource is the pipeline's Lender for a live emulator. The emulator
// runs on its own goroutine, filling free chunks and handing them over on
// full; Lend lends the pipeline each full chunk in place and returns it
// to free on the next call, once the pipeline has read it. Both channels
// have room for every chunk, so sends never block, and the emulator runs
// at most the ring ahead of the timing model. The stream is a function of
// the program alone, so emulating ahead changes no result.
type aheadSource struct {
	free, full chan *chunk
	stop, done chan struct{}
	cur        *chunk // lent by the last Lend
}

// emulateAhead starts e on the producer goroutine. The caller must call
// join before it reads e's state.
func emulateAhead(e *emu.Emulator) *aheadSource {
	s := &aheadSource{
		free: make(chan *chunk, ringChunks),
		full: make(chan *chunk, ringChunks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < ringChunks; i++ {
		s.free <- &chunk{t: make([]emu.Trace, chunkLen)}
	}
	// Lend starts out holding a spent full chunk, which it returns to free
	// on its first call, so it never has to test for a missing one.
	s.cur = <-s.free
	s.cur.n = chunkLen
	go s.produce(e)
	return s
}

func (s *aheadSource) produce(e *emu.Emulator) {
	defer close(s.done)
	for {
		// Stop takes priority over a free chunk, so the producer does at
		// most one chunk of work after join closes stop.
		select {
		case <-s.stop:
			return
		default:
		}
		var c *chunk
		select {
		case c = <-s.free:
		case <-s.stop:
			return
		}
		c.n = 0
		for c.n < chunkLen && !e.Halted {
			if c.err = e.StepInto(&c.t[c.n]); c.err != nil {
				break
			}
			c.n++
		}
		s.full <- c
		if c.n < chunkLen {
			return
		}
	}
}

func (s *aheadSource) Lend() ([]emu.Trace, error) {
	if s.cur.n == chunkLen {
		s.free <- s.cur
		s.cur = <-s.full
		if s.cur.n > 0 {
			return s.cur.t[:s.cur.n], nil
		}
	}
	// The last chunk is spent: the stream ends, or the emulator's fault
	// follows the traces before it.
	return nil, s.cur.err
}

// join stops the producer and waits for it to exit, after which the
// emulator's state is safe to read.
func (s *aheadSource) join() {
	close(s.stop)
	<-s.done
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
// nil ctx disables the checks at zero cost. The emulator runs ahead of
// the timing model on a goroutine of its own, which RunCtx joins before
// it returns.
func RunCtx(ctx context.Context, p *prog.Program, machine pipeline.Config, maxInsts uint64, sink obs.Sink) (Result, error) {
	// The selective machine consults staticfac verdicts baked per linked
	// program; this is the layer that has the program in hand.
	machine = machine.WithStaticTable(p)
	e := emu.New(p)
	e.MaxInsts = maxInsts
	src := emulateAhead(e)
	stats, err := pipeline.RunCtx(ctx, machine, src, sink)
	src.join()
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
