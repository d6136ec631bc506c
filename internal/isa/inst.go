package isa

import (
	"fmt"
	"strconv"
)

// InstBytes is the size of every instruction in text.
const InstBytes = 4

// Inst is a decoded instruction. Which fields an op reads, writes,
// encodes and prints is its format's business (see opTable).
type Inst struct {
	Op     Op
	Rd     Reg
	Rs, Rt Reg
	Imm    int32
}

// Unified architectural register identifiers, used by the dependence
// tracking in the timing simulator. Integer registers occupy 0..31, FP
// registers 32..63, and the FP condition flag is UFCC.
const (
	UFPBase  = 32
	UFCC     = 64
	NumURegs = 65
)

// UInt returns the unified id of an integer register.
func UInt(r Reg) uint8 { return uint8(r) }

// UFP returns the unified id of an FP register.
func UFP(r Reg) uint8 { return uint8(r) + UFPBase }

// Field returns the register a register operand names: the Inst field's
// contents, or the implicit register. Other operands name register 0.
func (in Inst) Field(o Operand) Reg {
	switch o {
	case OpndRd, OpndFd:
		return in.Rd
	case OpndRs, OpndFs:
		return in.Rs
	case OpndRt, OpndFt:
		return in.Rt
	case opndV0:
		return V0
	case opndA0:
		return A0
	case opndRA:
		return RA
	}
	return Zero
}

// SetField stores r in the Inst field a register operand names; other
// operands leave in unchanged.
func (in *Inst) SetField(o Operand, r Reg) {
	switch o {
	case OpndRd, OpndFd:
		in.Rd = r
	case OpndRs, OpndFs:
		in.Rs = r
	case OpndRt, OpndFt:
		in.Rt = r
	}
}

// appendUnified appends the unified ids of the registers in list.
// Integer register 0 (hardwired zero) is never reported.
func (in Inst) appendUnified(buf []uint8, list *opnds) []uint8 {
	for _, o := range list {
		switch {
		case o == opndNone:
			return buf
		case o == opndFCC:
			buf = append(buf, UFCC)
		case o.FP():
			buf = append(buf, UFP(in.Field(o)))
		default:
			if r := in.Field(o); r != Zero {
				buf = append(buf, UInt(r))
			}
		}
	}
	return buf
}

// Uses appends the unified ids of all registers the instruction reads and
// returns the extended slice. Register 0 (hardwired zero) is never reported.
func (in Inst) Uses(buf []uint8) []uint8 { return in.appendUnified(buf, &opTable[in.Op].uses) }

// Defs appends the unified ids of all registers the instruction writes and
// returns the extended slice. Writes to register 0 are suppressed.
func (in Inst) Defs(buf []uint8) []uint8 { return in.appendUnified(buf, &opTable[in.Op].defs) }

// ControlTarget returns the statically-known target address of a direct
// control transfer located at pc: conditional branches (Imm is the signed
// byte displacement from the next instruction) and J/JAL (Imm is the
// absolute byte target). ok is false for indirect transfers (JR, JALR) and
// for non-control instructions.
func (in Inst) ControlTarget(pc uint32) (target uint32, ok bool) {
	switch {
	case in.Op.IsBranch():
		return pc + InstBytes + uint32(in.Imm), true
	case in.Op == J || in.Op == JAL:
		return uint32(in.Imm), true
	}
	return 0, false
}

// BaseReg returns the base register of a memory instruction.
func (in Inst) BaseReg() Reg { return in.Rs }

// IndexReg returns the index register of a register+register memory
// instruction.
func (in Inst) IndexReg() Reg { return in.Rt }

// StoreDataReg returns the register supplying the value of a store: the
// first operand of its assembly syntax.
func (in Inst) StoreDataReg() Reg { return in.Field(opTable[in.Op].syntax[0]) }

// String disassembles the instruction using conventional syntax.
func (in Inst) String() string {
	info := &opTable[in.Op]
	b := append(make([]byte, 0, 32), info.name...)
	for i, o := range info.syntax {
		switch {
		case o == opndNone:
			return string(b)
		case i == 0:
			b = append(b, ' ')
		default:
			b = append(b, ", "...)
		}
		b = in.appendOperand(b, o)
	}
	return string(b)
}

// appendOperand appends the assembly spelling of one syntax operand.
func (in Inst) appendOperand(b []byte, o Operand) []byte {
	switch o {
	case OpndImm, OpndDisp:
		return strconv.AppendInt(b, int64(in.Imm), 10)
	case OpndHi:
		return fmt.Appendf(b, "%#x", uint16(in.Imm))
	case OpndTarget:
		return fmt.Appendf(b, "%#x", uint32(in.Imm))
	case OpndMem:
		switch in.Op.Mode() {
		case AMReg:
			return fmt.Appendf(b, "(%s+%s)", in.BaseReg(), in.IndexReg())
		case AMPost:
			return fmt.Appendf(b, "(%s)+%d", in.BaseReg(), in.Imm)
		}
		return fmt.Appendf(b, "%d(%s)", in.Imm, in.BaseReg())
	}
	if o.FP() {
		return append(b, in.Field(o).FPName()...)
	}
	return append(b, in.Field(o).String()...)
}
