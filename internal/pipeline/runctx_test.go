package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// endless lends an unbounded straight-line instruction stream, for
// exercising cancellation of a run that would otherwise never finish.
type endless struct {
	pc  uint32
	pre isa.Pre
	buf [256]emu.Trace
}

func newEndless() *endless {
	return &endless{pc: 0x400000, pre: isa.Predecode(isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2})}
}

func (s *endless) Lend() ([]emu.Trace, error) {
	for i := range s.buf {
		s.buf[i] = emu.Trace{
			PC:     s.pc,
			Inst:   isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
			NextPC: s.pc + isa.InstBytes,
			Pre:    &s.pre,
		}
		s.pc += isa.InstBytes
	}
	return s.buf[:], nil
}

// sliceSource is a Source over a recorded stream whose producer faulted
// after it when err is non-nil: the last batch comes with the fault, as
// an io.Reader may return n > 0 with an error.
type sliceSource struct {
	trs []emu.Trace
	err error
}

func (s *sliceSource) NextBatch(buf []emu.Trace) (int, error) {
	n := copy(buf, s.trs)
	s.trs = s.trs[n:]
	if len(s.trs) == 0 {
		return n, s.err
	}
	return n, nil
}

// sourceTraces is a load-use stream longer than batchLender's buffer,
// with its pre-decodes attached.
func sourceTraces() []emu.Trace {
	var insts []isa.Inst
	for i := 0; i < batchSize+40; i++ {
		insts = append(insts,
			isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 4},
			isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T2})
	}
	trs := seq(insts...)
	for i := 0; i < len(trs); i += 2 {
		setMem(&trs[i], 0x1000+uint32(i)*8, 4, false)
	}
	return predecode(trs)
}

// TestRunCtxNilMatchesRun: RunCtx over a Replay with a live context
// times a stream exactly as Run does, which feeds the pipeline from a
// Source through batchLender with cancellation disabled, the path the
// benchmark module's layer ledger uses.
func TestRunCtxNilMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "fac"
	trs := sourceTraces()
	want, err := Run(cfg, &sliceSource{trs: trs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), cfg, Replay(trs, nil), nil)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunCtx over a Replay differs from Run over a Source:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSourceFault: a fault that comes with a Source's last batch is
// returned by Run only after every trace before it has issued.
func TestRunSourceFault(t *testing.T) {
	cfg := DefaultConfig()
	trs := sourceTraces()
	fault := errors.New("emu: fault")
	if _, err := Run(cfg, &sliceSource{trs: trs, err: fault}); err != fault {
		t.Fatalf("Run: err = %v, want the source's fault", err)
	}
	var issued obs.Counter
	if _, err := RunCtx(nil, cfg, &batchLender{src: &sliceSource{trs: trs, err: fault}}, &issued); err != fault {
		t.Fatalf("RunCtx over batchLender: err = %v, want the source's fault", err)
	}
	if n := issued.ByKind[obs.KindIssue]; n != uint64(len(trs)) {
		t.Fatalf("%d of the %d traces before the fault issued", n, len(trs))
	}
}

// TestRunCtxCancellation: a cancelled context aborts an endless run
// promptly with an error wrapping the context's error.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunCtx(ctx, fastCfg(), newEndless(), nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", d)
	}
}

// TestRunCtxDeadline: a deadline aborts the loop and the error reports
// DeadlineExceeded, the shape the simulation service's per-job timeout
// relies on.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, fastCfg(), newEndless(), nil)
	if err == nil {
		t.Fatal("deadline-exceeded run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline abort took %v, want prompt", d)
	}
}

// TestStatsRecordEncoding: Record keeps the paper's machine on the legacy
// encoding (the four named failure-breakdown fields, no predictor name),
// copies the cache sections, and gives a plain run no FAC or cache
// sections at all.
func TestStatsRecordEncoding(t *testing.T) {
	var s Stats
	s.Cycles, s.Insts, s.Loads, s.Stores = 1000, 900, 200, 100
	s.LoadsSpeculated, s.StoresSpeculated = 150, 80
	s.LoadSpecFailed, s.StoreSpecFailed = 12, 5
	s.ExtraAccesses = 17
	for i := range s.StallCycles {
		s.StallCycles[i] = uint64(10 + i)
	}
	for i := range s.LoadFailKinds {
		s.LoadFailKinds[i] = uint64(2 + i)
		s.StoreFailKinds[i] = uint64(5 + i)
	}
	s.Predictor = "fac"
	s.ICache.Accesses, s.ICache.Misses = 500, 20
	s.DCache.Accesses, s.DCache.Misses = 300, 30
	for i := 0; i < 10; i++ {
		s.DCache.MSHROcc.Add(uint64(i % 4))
	}

	rec := s.Record("bench", "int", "fac", "fac32")
	want := &obs.FACRecord{
		LoadsSpeculated: 150, LoadFails: 12, StoresSpeculated: 80, StoreFails: 5, ExtraAccesses: 17,
		LoadFailKinds:  obs.FailureBreakdown{Overflow: 2, GenCarry: 3, LargeNegConst: 4, NegIndexReg: 5},
		StoreFailKinds: obs.FailureBreakdown{Overflow: 5, GenCarry: 6, LargeNegConst: 7, NegIndexReg: 8},
	}
	if !reflect.DeepEqual(rec.FAC, want) {
		t.Fatalf("fac section:\n got %+v\nwant %+v", rec.FAC, want)
	}
	if rec.StallCyclesTotal != s.StallTotal() || rec.Stalls.Total() != s.StallTotal() {
		t.Fatalf("stall total %d, breakdown %d, want %d", rec.StallCyclesTotal, rec.Stalls.Total(), s.StallTotal())
	}
	if rec.ICache == nil || rec.ICache.Misses != 20 || rec.DCache == nil || rec.DCache.MSHROcc != s.DCache.MSHROcc {
		t.Fatalf("cache sections: %+v %+v", rec.ICache, rec.DCache)
	}

	var plain Stats
	plain.Cycles, plain.Insts = 10, 5
	prec := plain.Record("b", "int", "base", "base32")
	if prec.FAC != nil || prec.ICache != nil || prec.DCache != nil {
		t.Fatalf("plain record grew sections: %+v", prec)
	}
}

// TestStatsRecordEncodingPredictor: a zoo machine's record names the
// machine, carries the no-predict counters and name-keyed failure causes,
// and leaves the legacy fixed-slot breakdown empty.
func TestStatsRecordEncodingPredictor(t *testing.T) {
	var s Stats
	s.Cycles, s.Insts, s.Loads, s.Stores = 500, 400, 100, 50
	s.LoadsSpeculated, s.StoresSpeculated = 60, 20
	s.LoadSpecFailed, s.StoreSpecFailed = 30, 4
	s.LoadsNoPredict, s.StoresNoPredict = 12, 7
	s.Predictor = "stride"
	s.LoadFailKinds[0] = 25 // lastaddr
	s.LoadFailKinds[1] = 5  // stridebreak
	s.StoreFailKinds[0] = 4

	rec := s.Record("bench", "int", "stride", "stride")
	if rec.FAC == nil || rec.FAC.Predictor != "stride" {
		t.Fatalf("zoo record lacks predictor name: %+v", rec.FAC)
	}
	if rec.FAC.LoadsNoPredict != 12 || rec.FAC.StoresNoPredict != 7 {
		t.Fatalf("no-predict counters wrong: %+v", rec.FAC)
	}
	wantLoad := map[string]uint64{"lastaddr": 25, "stridebreak": 5}
	wantStore := map[string]uint64{"lastaddr": 4}
	if !reflect.DeepEqual(rec.FAC.LoadFailCauses, wantLoad) || !reflect.DeepEqual(rec.FAC.StoreFailCauses, wantStore) {
		t.Fatalf("named failure causes wrong: %+v / %+v", rec.FAC.LoadFailCauses, rec.FAC.StoreFailCauses)
	}
	if rec.FAC.LoadFailKinds != (obs.FailureBreakdown{}) || rec.FAC.StoreFailKinds != (obs.FailureBreakdown{}) {
		t.Fatalf("zoo record must not use the legacy fixed-slot breakdown: %+v", rec.FAC)
	}
}
