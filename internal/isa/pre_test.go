package isa

import "testing"

// TestPredecodeMatchesInst checks, for every opcode and a spread of register
// assignments, that the flattened Pre form reproduces exactly what the
// Inst methods report: the Uses/Defs register lists (same contents, same
// order), the class, the predicates, the addressing-mode flags, the memory
// access size, and the base register. The hot loops in internal/pipeline
// and internal/emu consume only the Pre form, so this equivalence is what
// keeps pre-decoding invisible to simulated timing.
func TestPredecodeMatchesInst(t *testing.T) {
	regCases := []struct {
		rd, rs, rt Reg
		imm        int32
	}{
		{1, 2, 3, 16},
		{4, 0, 0, -8},   // zero register sources are dropped from Uses
		{0, 5, 6, 0},    // zero register dest is dropped from Defs
		{31, 29, 1, 4},  // link/stack registers
		{7, 7, 7, 1024}, // all fields alias
	}
	for op := Op(1); op < NumOps; op++ {
		for _, rc := range regCases {
			in := Inst{Op: op, Rd: rc.rd, Rs: rc.rs, Rt: rc.rt, Imm: rc.imm}
			pre := Predecode(in)

			var buf [4]uint8
			wantUses := in.Uses(buf[:0])
			if got := pre.Uses[:pre.NUses]; !preEqualU8(got, wantUses) {
				t.Errorf("%v %+v: Pre uses %v, Inst.Uses %v", op, rc, got, wantUses)
			}
			wantDefs := in.Defs(buf[:0])
			if got := pre.Defs[:pre.NDefs]; !preEqualU8(got, wantDefs) {
				t.Errorf("%v %+v: Pre defs %v, Inst.Defs %v", op, rc, got, wantDefs)
			}

			if pre.Class != op.Class() {
				t.Errorf("%v: Pre class %v, Op class %v", op, pre.Class, op.Class())
			}
			if pre.IsControl() != op.IsControl() {
				t.Errorf("%v: Pre control %v, Op control %v", op, pre.IsControl(), op.IsControl())
			}
			if pre.IsMem() != op.IsMem() {
				t.Errorf("%v: Pre mem %v, Op mem %v", op, pre.IsMem(), op.IsMem())
			}
			if pre.IsLoad() != op.IsLoad() {
				t.Errorf("%v: Pre load %v, Op load %v", op, pre.IsLoad(), op.IsLoad())
			}
			if got, want := pre.Flags&PreStore != 0, op.IsStore(); got != want {
				t.Errorf("%v: Pre store %v, Op store %v", op, got, want)
			}
			if got, want := pre.Flags&PrePostInc != 0, op.Mode() == AMPost; got != want {
				t.Errorf("%v: Pre post-inc %v, Op mode %v", op, got, op.Mode())
			}
			if got, want := pre.Flags&PreRegOffset != 0, op.Mode() == AMReg; got != want {
				t.Errorf("%v: Pre reg-offset %v, Op mode %v", op, got, op.Mode())
			}
			if int(pre.MemSize) != op.MemSize() {
				t.Errorf("%v: Pre memSize %d, Op memSize %d", op, pre.MemSize, op.MemSize())
			}
			if op.IsMem() {
				if pre.BaseU != UInt(in.BaseReg()) {
					t.Errorf("%v %+v: Pre baseU %d, Inst base %v", op, rc, pre.BaseU, in.BaseReg())
				}
			} else if pre.BaseU != 0 {
				t.Errorf("%v: non-mem op has baseU %d", op, pre.BaseU)
			}
		}
	}
}

// TestPredecodeAllIndexes checks that PredecodeAll preserves one-to-one
// positional correspondence with the instruction slice.
func TestPredecodeAllIndexes(t *testing.T) {
	insts := []Inst{
		{Op: ADD, Rd: 1, Rs: 2, Rt: 3},
		{Op: LW, Rd: 4, Rs: 29, Imm: 8},
		{Op: SW, Rt: 4, Rs: 29, Imm: 12},
	}
	pre := PredecodeAll(insts)
	if len(pre) != len(insts) {
		t.Fatalf("PredecodeAll returned %d entries for %d insts", len(pre), len(insts))
	}
	for i := range insts {
		if want := Predecode(insts[i]); pre[i] != want {
			t.Errorf("entry %d: %+v, want %+v", i, pre[i], want)
		}
	}
}

func preEqualU8(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPredecodePadding checks the premise of the timing model's operand
// test, which takes the latest ready cycle over all three Uses slots:
// for every op in the table, with register fields that include $zero and
// registers of each file, Predecode leaves Uses[NUses:] and Defs[NDefs:]
// 0 and never lists unified register 0 ($zero) in Defs, so the scoreboard
// entry the padding reads stays 0. The cases must reach integer, FP and
// FCC ids (FP register 0 is unified id 32, a live register).
func TestPredecodePadding(t *testing.T) {
	regs := []Reg{Zero, 1, 2, 17, 31}
	var seenInt, seenFP, seenFCC bool
	for op := Op(0); op < NumOps; op++ {
		for _, rd := range regs {
			for _, rs := range regs {
				for _, rt := range regs {
					in := Inst{Op: op, Rd: rd, Rs: rs, Rt: rt, Imm: 4}
					pre := Predecode(in)
					for _, u := range pre.Uses[pre.NUses:] {
						if u != 0 {
							t.Fatalf("%v: unused Uses slot holds %d: %+v", in, u, pre)
						}
					}
					for _, d := range pre.Defs[pre.NDefs:] {
						if d != 0 {
							t.Fatalf("%v: unused Defs slot holds %d: %+v", in, d, pre)
						}
					}
					for _, d := range pre.Defs[:pre.NDefs] {
						if d == 0 {
							t.Fatalf("%v: Defs lists register 0: %+v", in, pre)
						}
					}
					for _, u := range append(pre.Uses[:pre.NUses:pre.NUses], pre.Defs[:pre.NDefs]...) {
						switch {
						case u == UFCC:
							seenFCC = true
						case u >= UFPBase:
							seenFP = true
						case u > 0:
							seenInt = true
						}
					}
				}
			}
		}
	}
	if !seenInt || !seenFP || !seenFCC {
		t.Errorf("cases reached integer %v, FP %v, FCC %v registers; want all three", seenInt, seenFP, seenFCC)
	}
}
