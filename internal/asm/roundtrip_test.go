package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

// syntaxInst builds op's instruction with each operand of its assembly
// syntax drawn from reg or imm. Fields the syntax does not name stay zero,
// as the assembler leaves them.
func syntaxInst(op isa.Op, reg func() isa.Reg, imm func(isa.Operand) int32) isa.Inst {
	in := isa.Inst{Op: op}
	for _, o := range op.Syntax() {
		switch o {
		case isa.OpndImm, isa.OpndHi, isa.OpndDisp, isa.OpndTarget:
			in.Imm = imm(o)
		case isa.OpndMem:
			in.Rs = reg()
			if op.Mode() == isa.AMReg {
				in.Rt = reg()
			} else {
				in.Imm = imm(o)
			}
		default:
			in.SetField(o, reg())
		}
	}
	return in
}

// reassemble assembles the disassembly of insts and checks that it
// yields insts again.
func reassemble(t *testing.T, insts []isa.Inst) {
	t.Helper()
	var src strings.Builder
	src.WriteString("main:\n")
	for _, in := range insts {
		fmt.Fprintf(&src, "\t%s\n", in.String())
	}
	o, err := Assemble(src.String())
	if err != nil {
		t.Fatalf("reassembly failed: %v", err)
	}
	if len(o.Text) != len(insts) {
		t.Fatalf("reassembled %d instructions, want %d", len(o.Text), len(insts))
	}
	for i := range insts {
		if o.Text[i] != insts[i] {
			t.Errorf("instruction %d: %v reassembled as %+v (want %+v)", i, insts[i], o.Text[i], insts[i])
		}
	}
}

// TestDisassemblyReassembles: every instruction the disassembler prints is
// accepted by the assembler and reassembles to the identical instruction —
// the two tools agree on the surface syntax. The pool holds every op with
// random operands.
func TestDisassemblyReassembles(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	reg := func() isa.Reg { return isa.Reg(r.Intn(32)) }
	imm := func(o isa.Operand) int32 {
		switch o {
		case isa.OpndHi:
			return int32(r.Intn(1 << 16))
		case isa.OpndDisp:
			return int32(int16(r.Uint32())) << 2
		case isa.OpndTarget:
			return int32(r.Uint32() &^ 3)
		}
		return int32(int16(r.Uint32()))
	}
	var insts []isa.Inst
	for i := 0; i < 40; i++ {
		for op := isa.Op(1); op < isa.NumOps; op++ {
			insts = append(insts, syntaxInst(op, reg, imm))
		}
	}
	reassemble(t, insts)
}

// TestBranchAndJumpDisassemblyReassembles covers the control-transfer
// shapes at the edges of their operands' ranges: displacements and
// targets print as raw numbers and reassemble through the numeric path.
func TestBranchAndJumpDisassemblyReassembles(t *testing.T) {
	var insts []isa.Inst
	for op := isa.Op(1); op < isa.NumOps; op++ {
		if !op.IsControl() {
			continue
		}
		for _, v := range []int32{-131072, -8, 0, 12, 131068, 0x00400000, 0x0ffffffc, -4} {
			reg := func() isa.Reg { return isa.Reg(v) & 31 }
			insts = append(insts, syntaxInst(op, reg, func(isa.Operand) int32 { return v }))
		}
	}
	reassemble(t, insts)
}
