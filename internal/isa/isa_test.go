package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{Zero, "$zero"}, {GP, "$gp"}, {SP, "$sp"}, {FP, "$fp"}, {RA, "$ra"},
		{V0, "$v0"}, {A3, "$a3"}, {T7, "$t7"}, {S0, "$s0"}, {T9, "$t9"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegByName(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		name := Reg(i).String()[1:]
		r, ok := RegByName(name)
		if !ok || r != Reg(i) {
			t.Errorf("RegByName(%q) = %v, %v; want %v, true", name, r, ok, Reg(i))
		}
	}
	if r, ok := RegByName("r17"); !ok || r != S1 {
		t.Errorf("RegByName(r17) = %v, %v", r, ok)
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded")
	}
	for _, bad := range []string{"r32", "0x1f", "29garbage", "r31.5", "5abc", "+5", "-0", "r", "", "r+1"} {
		if r, ok := RegByName(bad); ok {
			t.Errorf("RegByName(%q) = %v, want failure", bad, r)
		}
	}
	if r, ok := FPRegByName("f31"); !ok || r != 31 {
		t.Errorf("FPRegByName(f31) = %v, %v", r, ok)
	}
	for _, bad := range []string{"f32", "f+2", "f-0", "f", "f1x", "fp", "r2", "2"} {
		if r, ok := FPRegByName(bad); ok {
			t.Errorf("FPRegByName(%q) = %v, want failure", bad, r)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(1); op < NumOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", op.String(), got, ok, op)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !LW.IsLoad() || LW.IsStore() || !LW.IsMem() {
		t.Error("LW classification wrong")
	}
	if !SW.IsStore() || SW.IsLoad() {
		t.Error("SW classification wrong")
	}
	if !BEQ.IsBranch() || !BEQ.IsControl() || BEQ.IsJump() {
		t.Error("BEQ classification wrong")
	}
	if !JAL.IsJump() || !JAL.IsControl() {
		t.Error("JAL classification wrong")
	}
	if ADD.IsMem() || ADD.IsControl() {
		t.Error("ADD classification wrong")
	}
	if LW.MemSize() != 4 || LH.MemSize() != 2 || LB.MemSize() != 1 || LFD.MemSize() != 8 {
		t.Error("MemSize wrong")
	}
	if LW.Mode() != AMConst || LWX.Mode() != AMReg || LWPI.Mode() != AMPost {
		t.Error("Mode wrong")
	}
	if !LFD.FPDest() || !SFD.FPSrc() || LW.FPDest() {
		t.Error("FP flags wrong")
	}
	if FADD.Class() != ClassFPAdd || FMUL.Class() != ClassFPMul || FDIV.Class() != ClassFPDiv {
		t.Error("FP class wrong")
	}
	if MUL.Class() != ClassIntMul || DIV.Class() != ClassIntDiv || REM.Class() != ClassIntDiv {
		t.Error("int mul/div class wrong")
	}
}

func TestUsesDefs(t *testing.T) {
	cases := []struct {
		in   Inst
		uses []uint8
		defs []uint8
	}{
		{Inst{Op: ADD, Rd: T0, Rs: T1, Rt: T2}, []uint8{UInt(T1), UInt(T2)}, []uint8{UInt(T0)}},
		{Inst{Op: ADDI, Rd: T0, Rs: Zero, Imm: 5}, nil, []uint8{UInt(T0)}},
		{Inst{Op: LW, Rd: T0, Rs: SP, Imm: 8}, []uint8{UInt(SP)}, []uint8{UInt(T0)}},
		{Inst{Op: SW, Rt: T0, Rs: SP, Imm: 8}, []uint8{UInt(SP), UInt(T0)}, nil},
		{Inst{Op: SWX, Rd: T0, Rs: T1, Rt: T2}, []uint8{UInt(T1), UInt(T2), UInt(T0)}, nil},
		{Inst{Op: LWPI, Rd: T0, Rs: T1, Imm: 4}, []uint8{UInt(T1)}, []uint8{UInt(T0), UInt(T1)}},
		{Inst{Op: JAL, Imm: 0x400100}, nil, []uint8{UInt(RA)}},
		{Inst{Op: JR, Rs: RA}, []uint8{UInt(RA)}, nil},
		{Inst{Op: FADD, Rd: 2, Rs: 4, Rt: 6}, []uint8{UFP(4), UFP(6)}, []uint8{UFP(2)}},
		{Inst{Op: FCLT, Rs: 2, Rt: 4}, []uint8{UFP(2), UFP(4)}, []uint8{UFCC}},
		{Inst{Op: BC1T, Imm: 16}, []uint8{UFCC}, nil},
		{Inst{Op: SFD, Rt: 4, Rs: SP, Imm: 16}, []uint8{UInt(SP), UFP(4)}, nil},
		{Inst{Op: MTC1, Rd: 2, Rs: T0}, []uint8{UInt(T0)}, []uint8{UFP(2)}},
		{Inst{Op: MFC1, Rd: T0, Rs: 2}, []uint8{UFP(2)}, []uint8{UInt(T0)}},
	}
	for _, c := range cases {
		uses := c.in.Uses(nil)
		defs := c.in.Defs(nil)
		if !equalU8(uses, c.uses) {
			t.Errorf("%v Uses = %v, want %v", c.in, uses, c.uses)
		}
		if !equalU8(defs, c.defs) {
			t.Errorf("%v Defs = %v, want %v", c.in, defs, c.defs)
		}
	}
}

func TestZeroRegNeverDefined(t *testing.T) {
	in := Inst{Op: ADD, Rd: Zero, Rs: T0, Rt: T1}
	if defs := in.Defs(nil); len(defs) != 0 {
		t.Errorf("ADD $zero Defs = %v, want empty", defs)
	}
}

func equalU8(a, b []uint8) bool {
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	const pc = 0x00400100
	cases := []Inst{
		{Op: ADD, Rd: T0, Rs: T1, Rt: T2},
		{Op: NOR, Rd: S7, Rs: T9, Rt: A0},
		{Op: ADDI, Rd: SP, Rs: SP, Imm: -64},
		{Op: ANDI, Rd: T0, Rs: T1, Imm: 0xFF0F},
		{Op: ORI, Rd: T0, Rs: Zero, Imm: 0xFFFF},
		{Op: LUI, Rd: GP, Imm: 0x1001},
		{Op: SLL, Rd: T0, Rs: T1, Imm: 31},
		{Op: SRA, Rd: T0, Rs: T1, Imm: 1},
		{Op: LW, Rd: T3, Rs: GP, Imm: 32764},
		{Op: LW, Rd: T3, Rs: SP, Imm: -32768},
		{Op: SW, Rt: T3, Rs: SP, Imm: 124},
		{Op: SB, Rt: V0, Rs: T0, Imm: -1},
		{Op: LFD, Rd: 4, Rs: SP, Imm: 16},
		{Op: SFD, Rt: 6, Rs: GP, Imm: 8},
		{Op: LWX, Rd: T0, Rs: T1, Rt: T2},
		{Op: SWX, Rd: T0, Rs: T1, Rt: T2},
		{Op: LFDX, Rd: 8, Rs: T1, Rt: T2},
		{Op: SFDX, Rd: 8, Rs: T1, Rt: T2},
		{Op: LWPI, Rd: T0, Rs: T1, Imm: 4},
		{Op: SWPI, Rt: T0, Rs: T1, Imm: -8},
		{Op: LFDPI, Rd: 2, Rs: T1, Imm: 8},
		{Op: SFDPI, Rt: 2, Rs: T1, Imm: 8},
		{Op: BEQ, Rs: T0, Rt: T1, Imm: -4},
		{Op: BNE, Rs: T0, Rt: Zero, Imm: 4096},
		{Op: BLEZ, Rs: T0, Imm: 8},
		{Op: BGEZ, Rs: T0, Imm: -131072},
		{Op: BC1T, Imm: 64},
		{Op: BC1F, Imm: -64},
		{Op: J, Imm: 0x00400000},
		{Op: JAL, Imm: 0x0FFFFFFC},
		{Op: JR, Rs: RA},
		{Op: JALR, Rd: RA, Rs: T9},
		{Op: SYSCALL},
		{Op: FADD, Rd: 0, Rs: 2, Rt: 4},
		{Op: FDIV, Rd: 30, Rs: 28, Rt: 26},
		{Op: FNEG, Rd: 2, Rs: 4},
		{Op: FCLT, Rs: 2, Rt: 4},
		{Op: MTC1, Rd: 2, Rs: T0},
		{Op: MFC1, Rd: T0, Rs: 2},
		{Op: CVTDW, Rd: 2, Rs: 2},
	}
	for _, in := range cases {
		word, err := Encode(in, pc)
		if err != nil {
			t.Errorf("Encode(%v) failed: %v", in, err)
			continue
		}
		out, err := Decode(word, pc)
		if err != nil {
			t.Errorf("Decode(Encode(%v)) failed: %v", in, err)
			continue
		}
		if out != in {
			t.Errorf("round trip: got %+v, want %+v (word %#08x)", out, in, word)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	const pc = 0x00400000
	bad := []Inst{
		{Op: ADDI, Rd: T0, Rs: T1, Imm: 40000},
		{Op: ADDI, Rd: T0, Rs: T1, Imm: -40000},
		{Op: ANDI, Rd: T0, Rs: T1, Imm: -1},
		{Op: ANDI, Rd: T0, Rs: T1, Imm: 0x10000},
		{Op: SLL, Rd: T0, Rs: T1, Imm: 32},
		{Op: BEQ, Rs: T0, Rt: T1, Imm: 3},       // unaligned
		{Op: BEQ, Rs: T0, Rt: T1, Imm: 1 << 20}, // too far
		{Op: J, Imm: 0x00400001},                // unaligned
		{Op: J, Imm: 0x50000000},                // wrong region
		{Op: BAD},
	}
	for _, in := range bad {
		if _, err := Encode(in, pc); err == nil {
			t.Errorf("Encode(%+v) unexpectedly succeeded", in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(63<<26, 0x400000); err == nil {
		t.Error("Decode of bad major opcode succeeded")
	}
	if _, err := Decode(62, 0x400000); err == nil {
		t.Error("Decode of bad funct succeeded")
	}
}

// randInst builds a random but encodable instruction: any op, with the
// fields its format names filled in and an immediate of its kind.
func randInst(r *rand.Rand, pc uint32) Inst {
	op := Op(1 + r.Intn(int(NumOps)-1))
	in := Inst{Op: op}
	f := &opTable[op].format
	for _, list := range []opnds{f.uses, f.defs, f.syntax} {
		for _, o := range list {
			in.SetField(o, Reg(r.Intn(32)))
		}
	}
	switch f.imm {
	case immSigned:
		in.Imm = int32(int16(r.Uint32()))
	case immUnsigned:
		in.Imm = int32(r.Intn(1 << 16))
	case immShift:
		in.Imm = int32(r.Intn(32))
	case immBranch:
		in.Imm = int32(int16(r.Uint32())) << 2
	case immJump:
		in.Imm = int32(pc&0xF0000000 | uint32(r.Intn(1<<24))<<2)
	}
	return in
}

// Property: every encodable instruction round-trips through Encode/Decode.
func TestEncodeDecodeProperty(t *testing.T) {
	const pc = 0x00400000
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		in := randInst(r, pc)
		word, err := Encode(in, pc)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", in, err)
		}
		out, err := Decode(word, pc)
		if err != nil {
			t.Fatalf("Decode(%#08x): %v", word, err)
		}
		if out != in {
			t.Fatalf("round trip %+v -> %#08x -> %+v", in, word, out)
		}
	}
}

// Property: decoding any word either fails or yields an instruction that
// re-encodes to an equivalent decoding (decode is a normal form).
func TestDecodeTotalProperty(t *testing.T) {
	const pc = 0x00400000
	f := func(word uint32) bool {
		in, err := Decode(word, pc)
		if err != nil {
			return true
		}
		w2, err := Encode(in, pc)
		if err != nil {
			return false
		}
		in2, err := Decode(w2, pc)
		return err == nil && in2 == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: T0, Rs: T1, Rt: T2}, "add $t0, $t1, $t2"},
		{Inst{Op: ADDI, Rd: SP, Rs: SP, Imm: -64}, "addi $sp, $sp, -64"},
		{Inst{Op: LW, Rd: T0, Rs: SP, Imm: 8}, "lw $t0, 8($sp)"},
		{Inst{Op: SW, Rt: T0, Rs: GP, Imm: 2436}, "sw $t0, 2436($gp)"},
		{Inst{Op: LWX, Rd: T0, Rs: T1, Rt: T2}, "lwx $t0, ($t1+$t2)"},
		{Inst{Op: SWX, Rd: T0, Rs: T1, Rt: T2}, "swx $t0, ($t1+$t2)"},
		{Inst{Op: LWPI, Rd: T0, Rs: T1, Imm: 4}, "lwpi $t0, ($t1)+4"},
		{Inst{Op: LFD, Rd: 4, Rs: SP, Imm: 16}, "lfd $f4, 16($sp)"},
		{Inst{Op: SFD, Rt: 6, Rs: SP, Imm: 24}, "sfd $f6, 24($sp)"},
		{Inst{Op: BEQ, Rs: T0, Rt: T1, Imm: -8}, "beq $t0, $t1, -8"},
		{Inst{Op: J, Imm: 0x400000}, "j 0x400000"},
		{Inst{Op: JR, Rs: RA}, "jr $ra"},
		{Inst{Op: SYSCALL}, "syscall"},
		{Inst{Op: LUI, Rd: GP, Imm: 0x1001}, "lui $gp, 0x1001"},
		{Inst{Op: FADD, Rd: 0, Rs: 2, Rt: 4}, "fadd $f0, $f2, $f4"},
		{Inst{Op: FCLT, Rs: 2, Rt: 4}, "fclt $f2, $f4"},
		{Inst{Op: FMOV, Rd: 2, Rs: 4}, "fmov $f2, $f4"},
		{Inst{Op: MTC1, Rd: 2, Rs: T0}, "mtc1 $f2, $t0"},
		{Inst{Op: MFC1, Rd: T0, Rs: 2}, "mfc1 $t0, $f2"},
		{Inst{Op: BC1T, Imm: 16}, "bc1t 16"},
		{Inst{Op: SLL, Rd: T0, Rs: T1, Imm: 2}, "sll $t0, $t1, 2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
