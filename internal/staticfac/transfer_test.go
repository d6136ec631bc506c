package staticfac

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// emptyEnv is the memory environment of an empty program, which has no
// data cells.
func emptyEnv() *memEnv { return newMemEnv(&prog.Program{}, nil) }

// TestStepPerOpcode is the table-driven transfer-function audit: one case
// per ALU/shift/immediate opcode that refines or destroys alignment facts,
// each checked against the emulator's concrete semantics for that opcode.
func TestStepPerOpcode(t *testing.T) {
	aligned := KB{Zeros: 0x3F} // 64-aligned, upper bits unknown
	cases := []struct {
		name string
		in   isa.Inst
		pre  func(st *State)
		want func(t *testing.T, st *State)
	}{
		{"lui-exact", isa.Inst{Op: isa.LUI, Rd: isa.T0, Imm: 0x1234}, nil,
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.T0], 0x12340000) }},
		{"addi-exact", isa.Inst{Op: isa.ADDI, Rd: isa.T1, Rs: isa.T0, Imm: -8},
			func(st *State) { st.SetReg(isa.T0, Exact(0x1000)) },
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.T1], 0xFF8) }},
		{"addi-keeps-alignment", isa.Inst{Op: isa.ADDI, Rd: isa.T1, Rs: isa.T0, Imm: 24},
			func(st *State) { st.SetReg(isa.T0, aligned) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 6, 24) }},
		{"add-aligned-plus-unknown", isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T0, aligned); st.SetReg(isa.T1, Unknown) },
			func(t *testing.T, st *State) { expectUnknown(t, st.R[isa.T2]) }},
		{"add-aligned-pair", isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T0, aligned); st.SetReg(isa.T1, KB{Zeros: 0x7}) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T2], 3, 0) }},
		{"sub-exact", isa.Inst{Op: isa.SUB, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T0, Exact(0x40)); st.SetReg(isa.T1, Exact(0x18)) },
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.T2], 0x28) }},
		{"andi-refines", isa.Inst{Op: isa.ANDI, Rd: isa.T1, Rs: isa.T0, Imm: 0xFFC0},
			func(st *State) { st.SetReg(isa.T0, Unknown) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 6, 0) }}, // low 6 and top 16 proven zero
		{"and-alignment-mask", isa.Inst{Op: isa.AND, Rd: isa.SP, Rs: isa.SP, Rt: isa.T9},
			func(st *State) { st.SetReg(isa.SP, Unknown); st.SetReg(isa.T9, Exact(^uint32(63))) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.SP], 6, 0) }}, // the explicit-align prologue
		{"ori-sets", isa.Inst{Op: isa.ORI, Rd: isa.T1, Rs: isa.T0, Imm: 0x21},
			func(st *State) { st.SetReg(isa.T0, aligned) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 6, 0x21) }},
		{"xori-flips-known", isa.Inst{Op: isa.XORI, Rd: isa.T1, Rs: isa.T0, Imm: 0x3},
			func(st *State) { st.SetReg(isa.T0, Exact(0x41)) },
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.T1], 0x42) }},
		{"sll-shifts-in-zeros", isa.Inst{Op: isa.SLL, Rd: isa.T1, Rs: isa.T0, Imm: 3},
			func(st *State) { st.SetReg(isa.T0, Unknown) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 3, 0) }},
		{"srl-destroys-alignment", isa.Inst{Op: isa.SRL, Rd: isa.T1, Rs: isa.T0, Imm: 2},
			func(st *State) { st.SetReg(isa.T0, aligned) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 4, 0) }}, // 64-aligned >> 2 is 16-aligned
		{"sra-sign-unknown", isa.Inst{Op: isa.SRA, Rd: isa.T1, Rs: isa.T0, Imm: 4},
			func(st *State) { st.SetReg(isa.T0, KB{Zeros: 0xFF}) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T1], 4, 0) }},
		{"sllv-known-amount", isa.Inst{Op: isa.SLLV, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T0, Unknown); st.SetReg(isa.T1, Exact(2)) },
			func(t *testing.T, st *State) { expectLow(t, st.R[isa.T2], 2, 0) }},
		{"sllv-unknown-amount", isa.Inst{Op: isa.SLLV, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T0, Exact(64)); st.SetReg(isa.T1, Unknown) },
			func(t *testing.T, st *State) { expectUnknown(t, st.R[isa.T2]) }},
		{"slt-bool", isa.Inst{Op: isa.SLT, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1}, nil,
			func(t *testing.T, st *State) {
				if st.R[isa.T2].Zeros != ^uint32(1) {
					t.Fatalf("slt result %v, want bits 1..31 zero", st.R[isa.T2])
				}
				if iv := st.IV[isa.T2]; iv.Lo() != 0 || iv.Hi() != 1 {
					t.Fatalf("slt interval %v, want [0, 1]", iv)
				}
			}},
		{"mul-clobbers", isa.Inst{Op: isa.MUL, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			func(st *State) { st.SetReg(isa.T2, Exact(4)) },
			func(t *testing.T, st *State) { expectUnknown(t, st.R[isa.T2]) }},
		{"lw-clobbers-dest", isa.Inst{Op: isa.LW, Rd: isa.T0, Rs: isa.SP, Imm: 0},
			func(st *State) { st.SetReg(isa.T0, Exact(4)) },
			func(t *testing.T, st *State) { expectUnknown(t, st.R[isa.T0]) }},
		{"lwpi-advances-base", isa.Inst{Op: isa.LWPI, Rd: isa.T0, Rs: isa.T1, Imm: 4},
			func(st *State) { st.SetReg(isa.T1, Exact(0x10000000)) },
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.T1], 0x10000004) }},
		{"syscall-clobbers-v0", isa.Inst{Op: isa.SYSCALL},
			func(st *State) { st.SetReg(isa.V0, Exact(9)) },
			func(t *testing.T, st *State) { expectUnknown(t, st.R[isa.V0]) }},
		{"jal-links", isa.Inst{Op: isa.JAL, Imm: 0x400100}, nil,
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.RA], 0x400204) }},
		{"zero-stays-zero", isa.Inst{Op: isa.ADDI, Rd: isa.Zero, Rs: isa.T0, Imm: 5},
			func(st *State) { st.SetReg(isa.T0, Exact(1)) },
			func(t *testing.T, st *State) { expectExact(t, st.R[isa.Zero], 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st State
			for r := range st.R {
				st.SetReg(isa.Reg(r), Unknown)
			}
			st.SetReg(isa.Zero, Exact(0))
			if tc.pre != nil {
				tc.pre(&st)
			}
			step(&st, tc.in, 0x400200, emptyEnv())
			tc.want(t, &st)
		})
	}
}

func expectExact(t *testing.T, k KB, v uint32) {
	t.Helper()
	if !k.IsExact() || k.Ones != v {
		t.Fatalf("got %v, want exact %#x", k, v)
	}
}

func expectLow(t *testing.T, k KB, n uint, v uint32) {
	t.Helper()
	if got, ok := k.LowKnown(n); !ok || got != v {
		t.Fatalf("got %v, want low %d bits known = %#x", k, n, v)
	}
}

func expectUnknown(t *testing.T, k KB) {
	t.Helper()
	if k != Unknown {
		t.Fatalf("got %v, want unknown", k)
	}
}

// aluConcrete mirrors the emulator's ALU semantics (internal/emu exec) for
// the opcodes step models precisely; the pairing below keeps the abstract
// transfer honest on random exact inputs.
func aluConcrete(op isa.Op, a, b uint32, imm int32) (uint32, bool) {
	switch op {
	case isa.ADD:
		return a + b, true
	case isa.SUB:
		return a - b, true
	case isa.AND:
		return a & b, true
	case isa.OR:
		return a | b, true
	case isa.XOR:
		return a ^ b, true
	case isa.NOR:
		return ^(a | b), true
	case isa.SLT:
		if int32(a) < int32(b) {
			return 1, true
		}
		return 0, true
	case isa.SLTU:
		if a < b {
			return 1, true
		}
		return 0, true
	case isa.SLLV:
		return a << (b & 31), true
	case isa.SRLV:
		return a >> (b & 31), true
	case isa.SRAV:
		return uint32(int32(a) >> (b & 31)), true
	case isa.ADDI:
		return a + uint32(imm), true
	case isa.ANDI:
		return a & uint32(imm), true
	case isa.ORI:
		return a | uint32(imm), true
	case isa.XORI:
		return a ^ uint32(imm), true
	case isa.SLTI:
		if int32(a) < imm {
			return 1, true
		}
		return 0, true
	case isa.SLTIU:
		if a < uint32(imm) {
			return 1, true
		}
		return 0, true
	case isa.SLL:
		return a << (uint(imm) & 31), true
	case isa.SRL:
		return a >> (uint(imm) & 31), true
	case isa.SRA:
		return uint32(int32(a) >> (uint(imm) & 31)), true
	case isa.LUI:
		return uint32(imm) << 16, true
	}
	return 0, false
}

// TestStepMatchesConcrete drives random ALU instructions through the
// abstract transfer function from exact operand states: both the
// known-bits and the interval abstraction of the result must contain the
// concrete result of the same instruction.
func TestStepMatchesConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := emptyEnv()
	ops := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.NOR, isa.SLT, isa.SLTU,
		isa.SLLV, isa.SRLV, isa.SRAV, isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLTI, isa.SLTIU, isa.SLL, isa.SRL, isa.SRA, isa.LUI,
	}
	for i := 0; i < 5000; i++ {
		op := ops[rng.Intn(len(ops))]
		in := isa.Inst{Op: op, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1, Imm: int32(int16(rng.Uint32()))}
		switch op {
		case isa.SLL, isa.SRL, isa.SRA:
			in.Imm = int32(rng.Intn(32))
		case isa.LUI:
			in.Imm = int32(uint16(rng.Uint32()))
		}
		a, b := rng.Uint32(), rng.Uint32()
		want, ok := aluConcrete(op, a, b, in.Imm)
		if !ok {
			t.Fatalf("no concrete model for %v", op)
		}

		var st State
		st.SetReg(isa.T0, Exact(a))
		st.SetReg(isa.T1, Exact(b))
		step(&st, in, 0x400000, env)
		if !st.R[isa.T2].Contains(want) {
			t.Fatalf("%v a=%#x b=%#x: abstract %v does not contain concrete %#x",
				in, a, b, st.R[isa.T2], want)
		}
		if !st.IV[isa.T2].Contains(want) {
			t.Fatalf("%v a=%#x b=%#x: interval %v does not contain concrete %#x",
				in, a, b, st.IV[isa.T2], want)
		}
	}
}
