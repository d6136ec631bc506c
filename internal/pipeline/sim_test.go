package pipeline

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// seq builds a contiguous straight-line trace starting at pc 0x400000.
func seq(insts ...isa.Inst) []emu.Trace {
	trs := make([]emu.Trace, len(insts))
	pc := uint32(0x400000)
	for i, in := range insts {
		trs[i] = emu.Trace{PC: pc, Inst: in, NextPC: pc + 4}
		pc += 4
	}
	return trs
}

// setMem fills in the memory-operand fields of a trace element.
func setMem(tr *emu.Trace, base, ofs uint32, isReg bool) {
	tr.Base, tr.Offset, tr.EffAddr, tr.IsRegOffset = base, ofs, base+ofs, isReg
}

// fastCfg is a machine with perfect caches and perfect fetch, isolating the
// issue timing under test.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.PerfectICache = true
	cfg.PerfectDCache = true
	return cfg
}

// predecode gives each hand-built trace its pre-decode, as every producer
// must, and returns trs.
func predecode(trs []emu.Trace) []emu.Trace {
	pre := make([]isa.Pre, len(trs))
	for i := range trs {
		pre[i] = isa.Predecode(trs[i].Inst)
		trs[i].Pre = &pre[i]
	}
	return trs
}

// runTraces replays a hand-built stream with sink attached (nil for none).
func runTraces(cfg Config, trs []emu.Trace, sink obs.Sink) (Stats, error) {
	return RunCtx(nil, cfg, Replay(predecode(trs), nil), sink)
}

func mustRun(t *testing.T, cfg Config, trs []emu.Trace) Stats {
	t.Helper()
	st, err := runTraces(cfg, trs, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Insts != uint64(len(trs)) {
		t.Fatalf("executed %d insts, want %d", st.Insts, len(trs))
	}
	return st
}

// TestFigure1LoadUseStall reproduces the paper's Figure 1: add, dependent
// load, dependent sub. With 2-cycle loads the sub stalls one cycle.
func TestFigure1LoadUseStall(t *testing.T) {
	mk := func() []emu.Trace {
		trs := seq(
			isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2}, // add rx,ry,rz
			isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},      // load rw,4(rx)
			isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3}, // sub ra,rb,rw
		)
		setMem(&trs[1], 0x1000, 4, false)
		return trs
	}

	base := mustRun(t, fastCfg(), mk())

	cfgFAC := fastCfg()
	cfgFAC.Predictor = "fac"
	// PerfectDCache drops the cache model but the predictor still runs.
	withFAC := mustRun(t, cfgFAC, mk())

	if base.Cycles != withFAC.Cycles+1 {
		t.Errorf("cycles base=%d fac=%d, want FAC to save exactly the one load-use stall",
			base.Cycles, withFAC.Cycles)
	}
	if withFAC.LoadsSpeculated != 1 || withFAC.LoadSpecFailed != 0 {
		t.Errorf("FAC stats = %+v", withFAC)
	}
}

// TestDependentChainTiming checks scoreboard latencies for ALU chains.
func TestDependentChainTiming(t *testing.T) {
	// 5 dependent adds: issue 1/cycle; first issues at cycle 2 (fetch 0).
	trs := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T0},
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T0},
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T0},
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T0},
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T0},
	)
	st := mustRun(t, fastCfg(), trs)
	// Fetch group 0 at cycle 0 (4 insts), issue at 2,3,4,5; 5th fetched at
	// 1, issues at 6; completes at 7.
	if st.Cycles != 7 {
		t.Errorf("cycles = %d, want 7", st.Cycles)
	}
}

// TestSuperscalarIssue verifies up to 4 independent ALU ops issue together.
func TestSuperscalarIssue(t *testing.T) {
	trs := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.Zero, Rt: isa.Zero},
		isa.Inst{Op: isa.ADD, Rd: isa.T1, Rs: isa.Zero, Rt: isa.Zero},
		isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.Zero, Rt: isa.Zero},
		isa.Inst{Op: isa.ADD, Rd: isa.T3, Rs: isa.Zero, Rt: isa.Zero},
	)
	st := mustRun(t, fastCfg(), trs)
	// All four issue at cycle 2, complete at 3.
	if st.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", st.Cycles)
	}
}

// TestMulDivStructuralHazard: the single mult/div unit serializes divides.
func TestMulDivStructuralHazard(t *testing.T) {
	trs := seq(
		isa.Inst{Op: isa.DIV, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.DIV, Rd: isa.T3, Rs: isa.T4, Rt: isa.T5},
	)
	st := mustRun(t, fastCfg(), trs)
	// div1 at 2 (result 22, unit busy until 21); div2 at 21, result 41.
	if st.Cycles != 41 {
		t.Errorf("cycles = %d, want 41", st.Cycles)
	}
	// Independent muls are pipelined (interval 1).
	trs = seq(
		isa.Inst{Op: isa.MUL, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.MUL, Rd: isa.T3, Rs: isa.T4, Rt: isa.T5},
	)
	st = mustRun(t, fastCfg(), trs)
	// mul1 at 2 -> 5; mul2 at 3 -> 6.
	if st.Cycles != 6 {
		t.Errorf("mul cycles = %d, want 6", st.Cycles)
	}
}

// TestLoadPortLimit: at most two loads access the cache per cycle.
func TestLoadPortLimit(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Inst{Op: isa.LW, Rd: isa.Reg(8 + i), Rs: isa.GP, Imm: int32(i * 4)})
	}
	trs := seq(insts...)
	for i := range trs {
		setMem(&trs[i], 0x10000000, uint32(i*4), false)
	}
	st := mustRun(t, fastCfg(), trs)
	// Issue limited to 2 loads/cycle: cycle 2 (2 loads, access at 3) then
	// cycle 3 (access at 4): results at 5. Total 5 cycles.
	if st.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", st.Cycles)
	}
}

// TestStoreLoadBandwidthExclusion: a store's cache cycle excludes loads.
func TestStoreLoadBandwidthExclusion(t *testing.T) {
	trs := seq(
		isa.Inst{Op: isa.SW, Rt: isa.T0, Rs: isa.GP, Imm: 0},
		isa.Inst{Op: isa.LW, Rd: isa.T1, Rs: isa.GP, Imm: 8},
	)
	setMem(&trs[0], 0x10000000, 0, false)
	setMem(&trs[1], 0x10000000, 8, false)
	st := mustRun(t, fastCfg(), trs)
	// Store issues at 2 (probe at 3); the load cannot use cycle 3, issues
	// at 3 with access at 4, result at 5.
	if st.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", st.Cycles)
	}
}

// TestFACMispredictReplay: a failed prediction costs the baseline latency
// and is counted as bandwidth overhead.
func TestFACMispredictReplay(t *testing.T) {
	mk := func() []emu.Trace {
		trs := seq(
			isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 364},
			isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T0},
		)
		setMem(&trs[0], 0x7fff5b84, 364, false) // paper Figure 5(d): mispredicts
		return trs
	}
	cfg := fastCfg()
	cfg.Predictor = "fac"
	st := mustRun(t, cfg, mk())
	if st.LoadSpecFailed != 1 || st.ExtraAccesses != 1 {
		t.Errorf("stats = %+v, want 1 failed speculation", st)
	}
	base := mustRun(t, fastCfg(), mk())
	if st.Cycles != base.Cycles {
		t.Errorf("mispredicted FAC (%d cycles) should match baseline (%d)", st.Cycles, base.Cycles)
	}
}

// TestPostMispredictRule: the access in the cycle after a mispredict does
// not speculate unless it is a load following a misspeculated load.
func TestPostMispredictRule(t *testing.T) {
	mk := func(second isa.Op) []emu.Trace {
		in1 := isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 364}
		var in2 isa.Inst
		if second == isa.LW {
			in2 = isa.Inst{Op: isa.LW, Rd: isa.T2, Rs: isa.T3, Imm: 0}
		} else {
			in2 = isa.Inst{Op: isa.SW, Rt: isa.T2, Rs: isa.T3, Imm: 0}
		}
		// Force the second access to a different cycle via a dependence.
		in3 := isa.Inst{Op: isa.ADD, Rd: isa.T4, Rs: isa.T0, Rt: isa.T0}
		trs := seq(in1, in3, in2)
		setMem(&trs[0], 0x7fff5b84, 364, false) // mispredicts
		setMem(&trs[2], 0x1000, 0, false)       // would predict fine
		return trs
	}
	cfg := fastCfg()
	cfg.Predictor = "fac"

	// The load mispredicts at its issue cycle n. The dependent add issues
	// at n+2 (replay latency), and the second access at n+2 as well — past
	// the blocked cycle, so it speculates.
	st, err := runTraces(cfg, mk(isa.LW), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadsSpeculated != 2 {
		t.Errorf("loads speculated = %d, want 2", st.LoadsSpeculated)
	}

	// Now make the second access issue in the very next cycle: independent.
	mkAdjacent := func(second isa.Op) []emu.Trace {
		in1 := isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 364}
		var in2 isa.Inst
		if second == isa.LW {
			in2 = isa.Inst{Op: isa.LW, Rd: isa.T2, Rs: isa.T3, Imm: 0}
		} else {
			in2 = isa.Inst{Op: isa.SW, Rt: isa.T2, Rs: isa.T3, Imm: 0}
		}
		trs := seq(in1, in2)
		setMem(&trs[0], 0x7fff5b84, 364, false)
		setMem(&trs[1], 0x1000, 0, false)
		return trs
	}
	// Both memory ops issue in the same cycle (2 LS units): same-cycle
	// accesses both speculate (verification is end-of-cycle).
	st, err = runTraces(cfg, mkAdjacent(isa.LW), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadsSpeculated != 2 {
		t.Errorf("same-cycle loads speculated = %d, want 2", st.LoadsSpeculated)
	}
}

// TestStoreBufferFullStalls: more stores than buffer entries cause stalls.
func TestStoreBufferFullStalls(t *testing.T) {
	cfg := fastCfg()
	cfg.StoreBufferEntries = 2
	var insts []isa.Inst
	for i := 0; i < 12; i++ {
		insts = append(insts, isa.Inst{Op: isa.SW, Rt: isa.T0, Rs: isa.GP, Imm: int32(4 * i)})
	}
	trs := seq(insts...)
	for i := range trs {
		setMem(&trs[i], 0x10000000, uint32(4*i), false)
	}
	st := mustRun(t, cfg, trs)
	if st.StoreBufferFullStalls == 0 {
		t.Error("expected store-buffer-full stalls")
	}
	if st.Stores != 12 {
		t.Errorf("stores = %d", st.Stores)
	}
}

// TestBranchMispredictPenalty compares a well-predicted loop against one
// whose every branch mispredicts.
func TestBranchMispredictPenalty(t *testing.T) {
	// A tight loop: the backward branch is taken every iteration, so after
	// warmup the BTB predicts it.
	var trs []emu.Trace
	loopPC := uint32(0x400000)
	for i := 0; i < 50; i++ {
		trs = append(trs,
			emu.Trace{PC: loopPC, Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T0, Rt: isa.T1}, NextPC: loopPC + 4},
			emu.Trace{PC: loopPC + 4, Inst: isa.Inst{Op: isa.BNE, Rs: isa.T0, Rt: isa.T2, Imm: -8}, NextPC: loopPC, Taken: true},
		)
	}
	st := mustRun(t, fastCfg(), trs)
	if st.BranchMispredicts > 2 {
		t.Errorf("loop branch mispredicted %d times", st.BranchMispredicts)
	}

	// Alternating taken/not-taken branch at the same PC defeats the 2-bit
	// counter at least half the time.
	trs = nil
	for i := 0; i < 50; i++ {
		taken := i%2 == 0
		next := loopPC + 8
		if taken {
			next = loopPC + 16
		}
		trs = append(trs, emu.Trace{PC: loopPC + 4, Inst: isa.Inst{Op: isa.BNE, Rs: isa.T0, Rt: isa.T2, Imm: 8}, NextPC: next, Taken: taken})
		trs = append(trs, emu.Trace{PC: next, Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0}, NextPC: loopPC + 4})
		trs = append(trs, emu.Trace{PC: loopPC + 4 - 4, Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0}, NextPC: loopPC + 4})
		// keep PCs consistent: rebuild simple alternating pattern below
		trs = trs[:len(trs)-2]
		trs = append(trs, emu.Trace{PC: next, Inst: isa.Inst{Op: isa.J, Imm: int32(loopPC + 4)}, NextPC: loopPC + 4})
	}
	st2, err := runTraces(fastCfg(), trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BranchMispredicts < 25 {
		t.Errorf("alternating branch mispredicted only %d/100", st2.BranchMispredicts)
	}
}

// TestICacheMissDelaysFetch: cold I-cache costs the miss latency.
func TestICacheMissDelaysFetch(t *testing.T) {
	cfg := fastCfg()
	cfg.PerfectICache = false
	trs := seq(isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.Zero, Rt: isa.Zero})
	st := mustRun(t, cfg, trs)
	// Fetch ready at 16 (cold miss), issue at 18, complete 19.
	if st.Cycles != 19 {
		t.Errorf("cycles = %d, want 19", st.Cycles)
	}
	if st.ICache.Misses != 1 {
		t.Errorf("icache misses = %d", st.ICache.Misses)
	}
}

// TestDCacheMissLatency: a cold load miss delays its dependents.
func TestDCacheMissLatency(t *testing.T) {
	cfg := fastCfg()
	cfg.PerfectDCache = false
	mk := func() []emu.Trace {
		trs := seq(
			isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
			isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T0},
		)
		setMem(&trs[0], 0x10000000, 0, false)
		return trs
	}
	st := mustRun(t, cfg, mk())
	// load issues at 2, access at 3 misses -> data at 19, add at 20 -> 21.
	if st.Cycles != 21 {
		t.Errorf("cycles = %d, want 21", st.Cycles)
	}
	if st.DCache.Misses != 1 {
		t.Errorf("dcache misses = %d", st.DCache.Misses)
	}
}

// TestNonBlockingMisses: independent work proceeds under a load miss.
func TestNonBlockingMisses(t *testing.T) {
	cfg := fastCfg()
	cfg.PerfectDCache = false
	trs := seq(
		isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
		isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T3, Rt: isa.T4}, // independent
		isa.Inst{Op: isa.ADD, Rd: isa.T5, Rs: isa.T2, Rt: isa.T2},
	)
	setMem(&trs[0], 0x10000000, 0, false)
	st := mustRun(t, cfg, trs)
	// The adds complete long before the miss returns: total = miss-bound.
	// load at 2, access 3, data 19 -> cycles 19 (+1 completion) = 19.
	if st.Cycles > 21 {
		t.Errorf("cycles = %d; independent work appears blocked by the miss", st.Cycles)
	}
}

// TestOneCycleLoadMode: LoadLatency=1 (the Figure 2 "1-cycle loads" series)
// beats the 2-cycle baseline on a load-use chain.
func TestOneCycleLoadMode(t *testing.T) {
	mk := func() []emu.Trace {
		var insts []isa.Inst
		for i := 0; i < 8; i++ {
			insts = append(insts,
				isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
				isa.Inst{Op: isa.ADD, Rd: isa.T1, Rs: isa.T0, Rt: isa.Zero})
		}
		trs := seq(insts...)
		for i := 0; i < len(trs); i += 2 {
			setMem(&trs[i], 0x1000, 0, false)
		}
		return trs
	}
	base := mustRun(t, fastCfg(), mk())
	cfg1 := fastCfg()
	cfg1.LoadLatency = 1
	one := mustRun(t, cfg1, mk())
	if one.Cycles+7 > base.Cycles {
		t.Errorf("1-cycle loads saved too little: base=%d one=%d", base.Cycles, one.Cycles)
	}
}

// TestRegRegSpeculationSwitch: register+register accesses only speculate
// when enabled.
func TestRegRegSpeculationSwitch(t *testing.T) {
	mk := func() []emu.Trace {
		trs := seq(isa.Inst{Op: isa.LWX, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2})
		setMem(&trs[0], 0x1000, 0x20, true)
		return trs
	}
	cfg := fastCfg()
	cfg.Predictor = "fac"
	st := mustRun(t, cfg, mk())
	if st.LoadsSpeculated != 0 {
		t.Error("reg+reg speculated despite SpeculateRegReg=false")
	}
	cfg.SpeculateRegReg = true
	st = mustRun(t, cfg, mk())
	if st.LoadsSpeculated != 1 || st.LoadSpecFailed != 0 {
		t.Errorf("reg+reg speculation stats = %+v", st)
	}
}

// TestFACStoreMispredictKeepsCorrectAddress: the buffered entry retires to
// the architectural address.
func TestFACStoreMispredictKeepsCorrectAddress(t *testing.T) {
	cfg := fastCfg()
	cfg.PerfectDCache = false
	cfg.Predictor = "fac"
	trs := seq(isa.Inst{Op: isa.SW, Rt: isa.T0, Rs: isa.T1, Imm: 364})
	setMem(&trs[0], 0x7fff5b84, 364, false) // mispredicts
	st := mustRun(t, cfg, trs)
	if st.StoreSpecFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The retired store must have accessed the architectural block.
	if st.DCache.Accesses != 1 || st.DCache.Misses != 1 {
		t.Errorf("dcache stats = %+v", st.DCache)
	}
}

// TestValidateRejectsBadConfigs exercises config validation.
func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IntALUs = 0 },
		func(c *Config) { c.LoadLatency = 3 },
		func(c *Config) { c.DCacheReadsPerCycle = 0 },
		func(c *Config) { c.StoreBufferEntries = 0 },
		func(c *Config) { c.ICache.BlockSize = 33 },
		func(c *Config) { c.Predictor = "pcax"; c.PredictorEntries = 1000 },
		func(c *Config) { c.BTBEntries = 1000 },
		func(c *Config) { c.BTBEntries = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{
		Cycles: 100, Insts: 250,
		Loads: 80, Stores: 20,
		LoadsSpeculated: 80, LoadSpecFailed: 20,
		StoresSpeculated: 20, StoreSpecFailed: 5,
		ExtraAccesses: 25,
	}
	if s.IPC() != 2.5 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if s.LoadFailRate() != 0.25 {
		t.Errorf("LoadFailRate = %v", s.LoadFailRate())
	}
	if s.StoreFailRate() != 0.25 {
		t.Errorf("StoreFailRate = %v", s.StoreFailRate())
	}
	if s.BandwidthOverhead() != 0.25 {
		t.Errorf("BandwidthOverhead = %v", s.BandwidthOverhead())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.LoadFailRate() != 0 || zero.BandwidthOverhead() != 0 {
		t.Error("zero stats not zero")
	}
}
