package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// countSink counts events by kind and stall cycles by cause.
type countSink struct {
	obs.Counter
	stalls [obs.NumStallCauses]uint64
}

func (c *countSink) Event(e obs.Event) {
	c.Counter.Event(e)
	if e.Kind == obs.KindStall {
		c.stalls[e.Cause]++
	}
}

// obsTraces is a mixed workload: ALU ops, a load-use dependency, a
// mispredicting load (index-field carry), and a store.
func obsTraces() []emu.Trace {
	trs := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},      // predicts OK
		isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3}, // load-use
		isa.Inst{Op: isa.LW, Rd: isa.T6, Rs: isa.T0, Imm: 0x30},   // index carry: mispredict
		isa.Inst{Op: isa.SW, Rd: isa.T6, Rs: isa.T0, Imm: 8},
	)
	setMem(&trs[1], 0x1000, 4, false)
	// 0x1030 + 0x30: block-offset bits (5) of base are 0x10, offset 0x30
	// -> 0x10+0x30 = 0x40 carries out of the 5-bit block offset field.
	setMem(&trs[3], 0x1030, 0x30, false)
	setMem(&trs[4], 0x1000, 8, false)
	return trs
}

// TestObservationDoesNotPerturbTiming: attaching a sink must leave every
// statistic identical to an unobserved run.
func TestObservationDoesNotPerturbTiming(t *testing.T) {
	for _, pred := range []string{"", "fac"} {
		cfg := DefaultConfig()
		cfg.Predictor = pred
		plain, err := Run(cfg, &sliceSource{trs: obsTraces()})
		if err != nil {
			t.Fatal(err)
		}
		sink := &countSink{}
		observed, err := RunObserved(cfg, &sliceSource{trs: obsTraces()}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("predictor %q: observed run differs:\n%+v\nvs\n%+v", pred, plain, observed)
		}
		if sink.Total() == 0 {
			t.Fatalf("predictor %q: sink received no events", pred)
		}
	}
}

// TestEventStreamMatchesStats: event counts must agree with the
// aggregate statistics of the same run.
func TestEventStreamMatchesStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "fac"
	sink := &countSink{}
	st, err := RunObserved(cfg, &sliceSource{trs: obsTraces()}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.ByKind[obs.KindIssue]; got != st.Insts {
		t.Errorf("issue events %d != insts %d", got, st.Insts)
	}
	if got := sink.ByKind[obs.KindFACPredict]; got != st.LoadsSpeculated+st.StoresSpeculated {
		t.Errorf("predict events %d != speculated %d", got, st.LoadsSpeculated+st.StoresSpeculated)
	}
	if got := sink.ByKind[obs.KindReplay]; got != st.LoadSpecFailed+st.StoreSpecFailed {
		t.Errorf("replay events %d != failures %d", got, st.LoadSpecFailed+st.StoreSpecFailed)
	}
	if got := sink.ByKind[obs.KindStall]; got != st.StallTotal() {
		t.Errorf("stall events %d != stall cycles %d", got, st.StallTotal())
	}
	if sink.stalls != st.StallCycles {
		t.Errorf("per-cause stall events %v != counters %v", sink.stalls, st.StallCycles)
	}
	if st.LoadSpecFailed == 0 {
		t.Error("trace was built to mispredict at least one load")
	}
	if got := sink.ByKind[obs.KindCacheAccess]; got == 0 {
		t.Error("no cache events emitted")
	}
	if got := sink.ByKind[obs.KindStoreRetire]; got != st.Stores {
		t.Errorf("store retire events %d != stores %d", got, st.Stores)
	}
}

// TestStallAccounting: the per-cause counters partition the no-issue
// cycles, and known hazards land in the right category.
func TestStallAccounting(t *testing.T) {
	// Load-use dependence on a perfect-cache machine: the only stalls
	// besides frontend fill are operand stalls.
	trs := seq(
		isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
		isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T0},
	)
	setMem(&trs[0], 0x1000, 0, false)
	st := mustRun(t, fastCfg(), trs)
	if st.StallCycles[obs.StallOperand] == 0 {
		t.Errorf("expected an operand stall from the load-use hazard: %v", st.StallCycles)
	}
	if st.StallCycles[obs.StallStoreBuffer] != 0 || st.StallCycles[obs.StallUnit] != 0 {
		t.Errorf("unexpected stall causes: %v", st.StallCycles)
	}

	// The partition: active + stalled cycles cover the issue loop.
	if st.IssueActiveCycles == 0 {
		t.Error("no active issue cycles recorded")
	}
	var sum uint64
	for _, n := range st.StallCycles {
		sum += n
	}
	if sum != st.StallTotal() {
		t.Errorf("StallTotal %d != sum %d", st.StallTotal(), sum)
	}
}

// TestStoreBufferStallCause: a full store buffer is charged to the
// store-buffer category.
func TestStoreBufferStallCause(t *testing.T) {
	cfg := fastCfg()
	cfg.StoreBufferEntries = 1
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts, isa.Inst{Op: isa.SW, Rd: isa.T0, Rs: isa.T1, Imm: int32(i * 4)})
	}
	trs := seq(insts...)
	for i := range trs {
		setMem(&trs[i], 0x1000, uint32(i*4), false)
	}
	st := mustRun(t, cfg, trs)
	if st.StoreBufferFullStalls == 0 {
		t.Fatal("expected store-buffer-full stalls")
	}
	if st.StallCycles[obs.StallStoreBuffer] == 0 {
		t.Errorf("full store buffer not attributed: %v", st.StallCycles)
	}
}

// TestLoadLatencyHistogram: every load contributes one sample, and a
// cache miss shows up as a long-latency sample.
func TestLoadLatencyHistogram(t *testing.T) {
	cfg := DefaultConfig()
	trs := seq(
		isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
		isa.Inst{Op: isa.LW, Rd: isa.T2, Rs: isa.T1, Imm: 4},
	)
	setMem(&trs[0], 0x1000, 0, false)
	setMem(&trs[1], 0x1000, 4, false)
	st := mustRun(t, cfg, trs)
	if st.LoadLatency.Count != st.Loads {
		t.Fatalf("latency samples %d != loads %d", st.LoadLatency.Count, st.Loads)
	}
	// First load misses the cold cache (16-cycle fill); the second hits
	// the in-flight fill. Max latency must reflect the miss.
	if st.LoadLatency.Max < uint64(cfg.DCache.MissLatency) {
		t.Fatalf("max load latency %d < miss latency %d", st.LoadLatency.Max, cfg.DCache.MissLatency)
	}
}

// TestFailureKindCounters: mispredictions decompose by signal, and the
// record export carries the breakdown.
func TestFailureKindCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "fac"
	st, err := Run(cfg, &sliceSource{trs: obsTraces()})
	if err != nil {
		t.Fatal(err)
	}
	var loadKinds uint64
	for _, n := range st.LoadFailKinds {
		loadKinds += n
	}
	if loadKinds < st.LoadSpecFailed {
		t.Fatalf("fail-kind counts %d < failed loads %d", loadKinds, st.LoadSpecFailed)
	}

	r := st.Record("bench", "int", "base", "fac32")
	if r.Schema == "" || r.FAC == nil {
		t.Fatalf("record missing FAC section: %+v", r)
	}
	if r.StallCyclesTotal != r.Stalls.Total() {
		t.Fatalf("record stall total %d != breakdown sum %d", r.StallCyclesTotal, r.Stalls.Total())
	}
	if r.FAC.LoadFailKinds.GenCarry == 0 && r.FAC.LoadFailKinds.Overflow == 0 {
		t.Fatalf("expected a decomposed load failure: %+v", r.FAC)
	}
	if r.DCache == nil || r.ICache == nil {
		t.Fatal("cache sections missing from record")
	}

	// A non-FAC machine must not emit a FAC section.
	st2, err := Run(DefaultConfig(), &sliceSource{trs: obsTraces()})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := st2.Record("bench", "int", "base", "base32"); r2.FAC != nil {
		t.Fatal("non-FAC record has FAC section")
	}
}
