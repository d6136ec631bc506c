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

// endlessSource yields an unbounded straight-line instruction stream, for
// exercising cancellation of a run that would otherwise never finish.
type endlessSource struct {
	pc uint32
}

func (s *endlessSource) NextBatch(buf []emu.Trace) (int, error) {
	for i := range buf {
		buf[i] = emu.Trace{
			PC:     s.pc,
			Inst:   isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
			NextPC: s.pc + isa.InstBytes,
		}
		s.pc += isa.InstBytes
	}
	return len(buf), nil
}

// TestRunCtxNilMatchesRun: a background-style nil context changes nothing
// about the timing result.
func TestRunCtxNilMatchesRun(t *testing.T) {
	trs := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},
		isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3},
	)
	setMem(&trs[1], 0x1000, 4, false)
	base := mustRun(t, fastCfg(), trs)

	trs2 := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},
		isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3},
	)
	setMem(&trs2[1], 0x1000, 4, false)
	got, err := RunCtx(context.Background(), fastCfg(), &batchLender{src: &sliceSource{trs: trs2}}, nil)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if got.Cycles != base.Cycles || got.Insts != base.Insts {
		t.Fatalf("RunCtx timing differs: %d cycles/%d insts vs %d/%d",
			got.Cycles, got.Insts, base.Cycles, base.Insts)
	}
}

// TestRunCtxCancellation: a cancelled context aborts an endless run
// promptly with an error wrapping the context's error.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunCtx(ctx, fastCfg(), &batchLender{src: &endlessSource{pc: 0x400000}}, nil)
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
	_, err := RunCtx(ctx, fastCfg(), &batchLender{src: &endlessSource{pc: 0x400000}}, nil)
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
