package pipeline

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

func agiCfg() Config {
	cfg := fastCfg()
	cfg.AGI = true
	cfg.MispredictPenalty = 3
	return cfg
}

// TestAGIRemovesLoadUseHazard: the Figure 1 sequence has no stall on an
// AGI pipeline — the consumer ALU executes in the same stage as cache
// access, one stage later.
func TestAGIRemovesLoadUseHazard(t *testing.T) {
	build := func() []isa.Inst {
		return []isa.Inst{
			{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
			{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},
			{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3},
		}
	}
	mkTr := func() []emu.Trace {
		trs := seq(build()...)
		setMem(&trs[1], 0x1000, 4, false)
		return trs
	}
	lui := mustRun(t, fastCfg(), mkTr())
	agi := mustRun(t, agiCfg(), mkTr())
	// On this snippet AGI saves the load-use stall but pays the address-use
	// hazard (add feeds the load's base) plus one extra completion stage:
	// net one cycle worse. The win shows on chains without address uses.
	if agi.Cycles != lui.Cycles+1 {
		t.Errorf("AGI on Figure-1 snippet: %d cycles vs LUI %d, want exactly +1", agi.Cycles, lui.Cycles)
	}

	// A longer chain of load-use pairs shows the saving: each pair costs
	// one stall on LUI and none on AGI.
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts,
			isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0},
			isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.Zero})
	}
	trs := seq(insts...)
	for i := 0; i < len(trs); i += 2 {
		setMem(&trs[i], 0x1000, 0, false)
	}
	luiN := mustRun(t, fastCfg(), trs)

	trs = seq(insts...)
	for i := 0; i < len(trs); i += 2 {
		setMem(&trs[i], 0x1000, 0, false)
	}
	agiN, err := runTraces(agiCfg(), trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if agiN.Cycles >= luiN.Cycles {
		t.Errorf("AGI did not hide load-use latency: %d vs %d cycles", agiN.Cycles, luiN.Cycles)
	}
}

// TestAGIAddressUseHazard: an ALU result feeding a load's base register
// costs a bubble on AGI that LUI does not pay.
func TestAGIAddressUseHazard(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts,
			isa.Inst{Op: isa.ADD, Rd: isa.T1, Rs: isa.T1, Rt: isa.Zero},
			isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.T1, Imm: 0})
	}
	mk := func() []emu.Trace {
		trs := seq(insts...)
		for i := 1; i < len(trs); i += 2 {
			setMem(&trs[i], 0x1000, 0, false)
		}
		return trs
	}
	lui := mustRun(t, fastCfg(), mk())
	agi := mustRun(t, agiCfg(), mk())
	if agi.Cycles <= lui.Cycles {
		t.Errorf("AGI did not pay the address-use hazard: %d vs %d cycles", agi.Cycles, lui.Cycles)
	}
}

func TestAGIAndFACExclusive(t *testing.T) {
	cfg := fastCfg()
	cfg.AGI = true
	cfg.Predictor = "fac"
	if err := cfg.Validate(); err == nil {
		t.Error("FAC+AGI config validated")
	}
}
