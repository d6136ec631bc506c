package pipeline

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// loopLender lends a small hand-built loop body (ALU, load, store, taken
// branch) in place, once per iteration, for a fixed number of iterations.
// It allocates nothing per call, so any allocation measured during a run
// is the simulator's.
type loopLender struct {
	iters int
	body  [4]emu.Trace
}

func newLoopLender(iters int) *loopLender {
	const base = 0x1000
	s := &loopLender{iters: iters}
	s.body = [4]emu.Trace{
		{PC: base, Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1}, NextPC: base + 4},
		{PC: base + 4, Inst: isa.Inst{Op: isa.LW, Rd: 2, Rs: 3, Imm: 0},
			NextPC: base + 8, EffAddr: 0x2000, Base: 0x2000},
		{PC: base + 8, Inst: isa.Inst{Op: isa.SW, Rt: 2, Rs: 3, Imm: 4},
			NextPC: base + 12, EffAddr: 0x2004, Base: 0x2000, Offset: 4},
		{PC: base + 12, Inst: isa.Inst{Op: isa.BNE, Rs: 1, Rt: 0, Imm: -16},
			NextPC: base, Taken: true},
	}
	predecode(s.body[:])
	return s
}

func (s *loopLender) Lend() ([]emu.Trace, error) {
	if s.iters == 0 {
		return nil, nil
	}
	s.iters--
	return s.body[:], nil
}

// TestSteadyStateZeroAllocs gates the hot loop at zero allocations per
// cycle in the detached-sink configuration: a run 16x longer must
// allocate exactly as much as a short one (all allocations are setup —
// the issue-queue and store-buffer rings, the caches, the BTB). A
// regression that reintroduces per-cycle or per-instruction heap traffic
// (queue growth, event boxing, trace copies) fails here.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "fac" // cover the predictor path too

	run := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := RunCtx(nil, cfg, newLoopLender(iters), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := run(500)
	long := run(8000)
	if long > short {
		t.Errorf("hot loop allocates: %.1f allocs for 500 iterations, %.1f for 8000 (want equal)",
			short, long)
	}
}

// BenchmarkDetachedSink / BenchmarkAttachedSink quantify the cost of the
// observability layer on the same synthetic stream: the detached (nil
// sink) run is the zero-cost baseline documented in
// docs/OBSERVABILITY.md; the attached run pays one callback per event.
// Compare with:
//
//	go test ./internal/pipeline/ -run xxx -bench 'Sink' -benchmem
func BenchmarkDetachedSink(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.Predictor = "fac"
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(nil, cfg, newLoopLender(2000), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttachedSink(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.Predictor = "fac"
	var c obs.Counter
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(nil, cfg, newLoopLender(2000), &c); err != nil {
			b.Fatal(err)
		}
	}
}
