package isa

import "fmt"

// Binary encoding. Instructions are 32 bits:
//
//	R-form (major opcode 0):
//	    [31:26]=0 [25:21]=rs [20:16]=rt [15:11]=rd [10:6]=sa [5:0]=funct
//	I-form: [31:26]=op [25:21]=rs [20:16]=rd/rt [15:0]=imm16 (signed except
//	    the logical immediates and LUI, which are zero-extended)
//	J-form: [31:26]=op [25:0]=target (byte address >> 2, within the 256MB
//	    region of the following instruction)
//
// Branch displacements are encoded in words relative to the address of the
// next instruction, as in MIPS, but there are no architected delay slots.
// Each op's form, opcode, funct, I-form bits 20:16 and immediate kind
// come from opTable.

// Encode packs the instruction into its 32-bit binary form. pc is the
// address of the instruction, needed to encode PC-relative branch
// displacements and region-relative jump targets.
func Encode(in Inst, pc uint32) (uint32, error) {
	if in.Op >= NumOps || opTable[in.Op].form == formNone {
		return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	info := &opTable[in.Op]
	imm, err := info.encodeImm(in, pc)
	if err != nil {
		return 0, err
	}
	rfield := func(r Reg) uint32 { return uint32(r) & 31 }
	opc := uint32(info.opc) << 26
	switch info.form {
	case formR:
		return opc | rfield(in.Rs)<<21 | rfield(in.Rt)<<16 | rfield(in.Rd)<<11 | imm<<6 | uint32(info.funct), nil
	case formI:
		return opc | rfield(in.Rs)<<21 | rfield(in.Field(info.second))<<16 | imm, nil
	}
	return opc | imm, nil
}

// encodeImm range-checks in.Imm and returns its bits: 16 for the I form,
// a 5-bit shift amount, or a 26-bit jump target.
func (f *format) encodeImm(in Inst, pc uint32) (uint32, error) {
	imm := in.Imm
	switch f.imm {
	case immSigned:
		if imm < -32768 || imm > 32767 {
			return 0, fmt.Errorf("isa: immediate %d out of range for %v", imm, in.Op)
		}
		return uint32(imm) & 0xFFFF, nil
	case immUnsigned:
		if imm < 0 || imm > 0xFFFF {
			return 0, fmt.Errorf("isa: unsigned immediate %d out of range for %v", imm, in.Op)
		}
		return uint32(imm), nil
	case immShift:
		if imm < 0 || imm > 31 {
			return 0, fmt.Errorf("isa: shift amount %d out of range", imm)
		}
		return uint32(imm), nil
	case immBranch:
		if imm&3 != 0 {
			return 0, fmt.Errorf("isa: branch displacement %d not word aligned", imm)
		}
		w := imm >> 2
		if w < -32768 || w > 32767 {
			return 0, fmt.Errorf("isa: branch displacement %d out of range", imm)
		}
		return uint32(w) & 0xFFFF, nil
	case immJump:
		target := uint32(imm)
		if target&3 != 0 {
			return 0, fmt.Errorf("isa: jump target %#x not word aligned", target)
		}
		if target&0xF0000000 != (pc+InstBytes)&0xF0000000 {
			return 0, fmt.Errorf("isa: jump target %#x outside region of pc %#x", target, pc)
		}
		return target >> 2 & 0x03FFFFFF, nil
	}
	return 0, nil
}

// byOpcode and byFunct invert opTable's encodings: the I- or J-form op
// with each major opcode, and the R-form op with each funct. BAD marks a
// number no op has.
var byOpcode, byFunct = func() (opc, funct [64]Op) {
	for op := Op(1); op < NumOps; op++ {
		if info := &opTable[op]; info.form == formR {
			funct[info.funct] = op
		} else {
			opc[info.opc] = op
		}
	}
	return opc, funct
}()

// Decode unpacks a 32-bit binary instruction. pc is the address of the
// instruction, used to materialize absolute branch and jump targets in Imm.
func Decode(word, pc uint32) (Inst, error) {
	opc := word >> 26
	op := byOpcode[opc]
	if opc == 0 { // the R form: the funct field names the op
		if op = byFunct[word&63]; op == BAD {
			return Inst{}, fmt.Errorf("isa: bad funct %d in word %#08x", word&63, word)
		}
	} else if op == BAD {
		return Inst{}, fmt.Errorf("isa: bad opcode %d in word %#08x", opc, word)
	}
	info := &opTable[op]
	in := Inst{Op: op}
	switch info.form {
	case formR:
		in.Rs, in.Rt, in.Rd = Reg(word>>21&31), Reg(word>>16&31), Reg(word>>11&31)
		if info.imm == immShift {
			in.Imm = int32(word >> 6 & 31)
		}
	case formI:
		in.Rs = Reg(word >> 21 & 31)
		in.SetField(info.second, Reg(word>>16&31))
		imm16 := word & 0xFFFF
		switch info.imm {
		case immBranch:
			in.Imm = int32(int16(imm16)) << 2
		case immUnsigned:
			in.Imm = int32(imm16)
		default:
			in.Imm = int32(int16(imm16))
		}
	case formJ:
		in.Imm = int32((pc+InstBytes)&0xF0000000 | (word&0x03FFFFFF)<<2)
	}
	return in, nil
}
