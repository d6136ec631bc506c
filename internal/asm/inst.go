package asm

import (
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// emitInst translates one (possibly pseudo) instruction statement.
func (a *assembler) emitInst(s stmt) error {
	switch s.name {
	case "nop":
		a.push(s, isa.Inst{Op: isa.SLL})
		return nil
	case "move":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rd, err := parseReg(s.args[0], s.line)
		if err != nil {
			return err
		}
		rs, err := parseReg(s.args[1], s.line)
		if err != nil {
			return err
		}
		a.push(s, isa.Inst{Op: isa.ADD, Rd: rd, Rs: rs})
		return nil
	case "not", "neg":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rd, err := parseReg(s.args[0], s.line)
		if err != nil {
			return err
		}
		rs, err := parseReg(s.args[1], s.line)
		if err != nil {
			return err
		}
		if s.name == "not" {
			a.push(s, isa.Inst{Op: isa.NOR, Rd: rd, Rs: rs, Rt: isa.Zero})
		} else {
			a.push(s, isa.Inst{Op: isa.SUB, Rd: rd, Rs: isa.Zero, Rt: rs})
		}
		return nil
	case "li":
		return a.emitLI(s)
	case "la":
		return a.emitLA(s)
	case "b":
		if err := a.need(s, 1); err != nil {
			return err
		}
		disp, err := a.branchDisp(s.args[0], s.line)
		if err != nil {
			return err
		}
		a.push(s, isa.Inst{Op: isa.BEQ, Imm: disp})
		return nil
	case "beqz", "bnez":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rs, err := parseReg(s.args[0], s.line)
		if err != nil {
			return err
		}
		disp, err := a.branchDisp(s.args[1], s.line)
		if err != nil {
			return err
		}
		op := isa.BEQ
		if s.name == "bnez" {
			op = isa.BNE
		}
		a.push(s, isa.Inst{Op: op, Rs: rs, Imm: disp})
		return nil
	case "blt", "ble", "bgt", "bge", "bltu", "bleu", "bgtu", "bgeu":
		return a.emitCmpBranch(s)
	case "jalr":
		if len(s.args) == 1 { // jalr $rs links through $ra
			rs, err := parseReg(s.args[0], s.line)
			if err != nil {
				return err
			}
			a.push(s, isa.Inst{Op: isa.JALR, Rd: isa.RA, Rs: rs})
			return nil
		}
	}
	op, ok := isa.OpByName(s.name)
	if !ok {
		return errLine(s.line, "unknown mnemonic %q", s.name)
	}
	syntax := op.Syntax()
	if err := a.need(s, len(syntax)); err != nil {
		return err
	}
	in := isa.Inst{Op: op}
	var imm immRef
	for i, o := range syntax {
		arg := s.args[i]
		var err error
		switch o {
		case isa.OpndImm, isa.OpndHi:
			imm, err = parseImmRef(arg, s.line)
		case isa.OpndDisp:
			imm.val, err = a.branchDisp(arg, s.line)
		case isa.OpndTarget:
			if isSymbolOperand(arg) {
				imm = immRef{kind: prog.RelJump, reloc: true}
				imm.sym, imm.val, err = splitSymRef(arg, s.line)
			} else {
				imm.val, err = parseInt32(arg, s.line)
			}
		case isa.OpndMem:
			return a.emitMem(s, in, arg)
		default:
			var r isa.Reg
			if o.FP() {
				r, err = parseFPReg(arg, s.line)
			} else {
				r, err = parseReg(arg, s.line)
			}
			in.SetField(o, r)
		}
		if err != nil {
			return err
		}
	}
	a.pushImm(s, in, imm)
	return nil
}

func (a *assembler) emitLI(s stmt) error {
	if err := a.need(s, 2); err != nil {
		return err
	}
	rd, err := parseReg(s.args[0], s.line)
	if err != nil {
		return err
	}
	v, err := parseInt32(s.args[1], s.line)
	if err != nil {
		return err
	}
	switch {
	case fitsSigned16(v):
		a.push(s, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: v})
	case fitsUnsigned16(v):
		a.push(s, isa.Inst{Op: isa.ORI, Rd: rd, Imm: v})
	case v&0xFFFF == 0:
		a.push(s, isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(uint32(v) >> 16)})
	default:
		a.push(s, isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(uint32(v) >> 16)})
		a.push(s, isa.Inst{Op: isa.ORI, Rd: rd, Rs: rd, Imm: int32(uint32(v) & 0xFFFF)})
	}
	return nil
}

func (a *assembler) emitLA(s stmt) error {
	if err := a.need(s, 2); err != nil {
		return err
	}
	rd, err := parseReg(s.args[0], s.line)
	if err != nil {
		return err
	}
	sym, add, err := splitSymRef(s.args[1], s.line)
	if err != nil {
		return err
	}
	if _, ok := a.syms[sym]; !ok {
		return errLine(s.line, "undefined symbol %q", sym)
	}
	if a.symIsSmall(sym) {
		a.pushImm(s, isa.Inst{Op: isa.ADDI, Rd: rd, Rs: isa.GP},
			immRef{val: add, kind: prog.RelGPRel, sym: sym, reloc: true})
		return nil
	}
	a.pushImm(s, isa.Inst{Op: isa.LUI, Rd: rd},
		immRef{val: add, kind: prog.RelHi16, sym: sym, reloc: true})
	a.pushImm(s, isa.Inst{Op: isa.ADDI, Rd: rd, Rs: rd},
		immRef{val: add, kind: prog.RelLo16, sym: sym, reloc: true})
	return nil
}

func (a *assembler) emitCmpBranch(s stmt) error {
	if err := a.need(s, 3); err != nil {
		return err
	}
	rs, err := parseReg(s.args[0], s.line)
	if err != nil {
		return err
	}
	rt, err := parseReg(s.args[1], s.line)
	if err != nil {
		return err
	}
	sltOp := isa.SLT
	if strings.HasSuffix(s.name, "u") {
		sltOp = isa.SLTU
	}
	base := strings.TrimSuffix(s.name, "u")
	// blt a,b: slt at,a,b; bne.  bge a,b: slt at,a,b; beq.
	// bgt a,b: slt at,b,a; bne.  ble a,b: slt at,b,a; beq.
	x, y := rs, rt
	brOp := isa.BNE
	switch base {
	case "bge":
		brOp = isa.BEQ
	case "bgt":
		x, y = rt, rs
	case "ble":
		x, y = rt, rs
		brOp = isa.BEQ
	}
	a.push(s, isa.Inst{Op: sltOp, Rd: isa.AT, Rs: x, Rt: y})
	disp, err := a.branchDisp(s.args[2], s.line)
	if err != nil {
		return err
	}
	a.push(s, isa.Inst{Op: brOp, Rs: isa.AT, Imm: disp})
	return nil
}

// emitMem finishes a load or store from its memory operand; in holds the
// mnemonic's op and data register. It picks the op's variant for the
// operand's addressing mode and expands a bare symbol operand.
func (a *assembler) emitMem(s stmt, in isa.Inst, arg string) error {
	m, err := parseMemOperand(arg, s.line)
	if err != nil {
		return err
	}
	mode := m.form
	if mode == isa.AMNone { // bare symbol
		if _, ok := a.syms[m.sym]; !ok {
			return errLine(s.line, "undefined symbol %q", m.sym)
		}
		mode = isa.AMConst
	}
	op := in.Op.Variant(mode)
	if op == isa.BAD {
		return errLine(s.line, "%v does not support this addressing mode", in.Op)
	}
	// The variant may keep its data register in another field.
	data := in.Field(in.Op.Syntax()[0])
	in = isa.Inst{Op: op, Rs: m.base, Rt: m.index}
	in.SetField(op.Syntax()[0], data)
	switch {
	case m.form != isa.AMNone:
		a.pushImm(s, in, m.off)
	case a.symIsSmall(m.sym):
		in.Rs = isa.GP
		a.pushImm(s, in, immRef{val: m.add, kind: prog.RelGPRel, sym: m.sym, reloc: true})
	default:
		a.pushImm(s, isa.Inst{Op: isa.LUI, Rd: isa.AT},
			immRef{val: m.add, kind: prog.RelHi16, sym: m.sym, reloc: true})
		in.Rs = isa.AT
		a.pushImm(s, in, immRef{val: m.add, kind: prog.RelLo16, sym: m.sym, reloc: true})
	}
	return nil
}

// symIsSmall reports whether sym lives in the gp-addressed global region.
func (a *assembler) symIsSmall(sym string) bool {
	s, ok := a.syms[sym]
	return ok && s.Section == prog.SecSData
}

func fitsSigned16(v int32) bool   { return v >= -32768 && v <= 32767 }
func fitsUnsigned16(v int32) bool { return v >= 0 && v <= 0xFFFF }
