package isa

// Op identifies an operation. Memory operations come in up to three
// addressing-mode variants, matching the extended MIPS target of the paper:
// register+constant (signed 16-bit immediate), register+register (the "X"
// suffix), and post-increment (the "PI" suffix: the access uses the base
// register value directly and the base is incremented by the immediate
// afterwards; post-decrement is a PI with a negative immediate).
type Op uint8

const (
	BAD Op = iota

	// Integer ALU, register-register.
	ADD
	SUB
	MUL
	DIV
	DIVU
	REM
	REMU
	AND
	OR
	XOR
	NOR
	SLT
	SLTU
	SLLV
	SRLV
	SRAV

	// Integer ALU, immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLTIU
	SLL
	SRL
	SRA
	LUI

	// Control.
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ
	J
	JAL
	JR
	JALR
	SYSCALL

	// Integer loads, register+constant addressing.
	LB
	LBU
	LH
	LHU
	LW
	// Integer stores, register+constant addressing.
	SB
	SH
	SW
	// FP (double) loads/stores, register+constant addressing.
	LFD
	SFD

	// Register+register addressing variants.
	LBX
	LBUX
	LHX
	LHUX
	LWX
	SBX
	SHX
	SWX
	LFDX
	SFDX

	// Post-increment variants (access at base, then base += imm).
	LWPI
	SWPI
	LFDPI
	SFDPI

	// Floating point (64-bit double precision).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FMOV
	FCLT // FP condition flag := fs < ft
	FCLE // FP condition flag := fs <= ft
	FCEQ // FP condition flag := fs == ft
	BC1T // branch if FP condition flag set
	BC1F // branch if FP condition flag clear
	MTC1 // move integer register bits into low word of FP register
	MFC1 // move low word of FP register bits into integer register
	CVTDW
	CVTWD

	NumOps // sentinel
)

// OpClass groups operations for functional-unit assignment and for the
// timing model (paper Table 5).
type OpClass uint8

const (
	ClassIntALU OpClass = iota
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassFPAdd // FP add/sub/compare/convert/move
	ClassFPMul
	ClassFPDiv
	ClassSyscall
)

// AddrMode is the addressing mode of a memory operation.
type AddrMode uint8

const (
	AMNone  AddrMode = iota
	AMConst          // effective address = base + signExtend(imm16)
	AMReg            // effective address = base + index register
	AMPost           // effective address = base; base += imm16 afterwards
)

// Operand names one operand of an instruction: an Inst register field
// read in the integer or FP register file, an implicit register, or the
// immediate in one of its assembly spellings.
type Operand uint8

const (
	opndNone   Operand = iota
	OpndRd             // integer register in Rd
	OpndRs             // integer register in Rs
	OpndRt             // integer register in Rt
	OpndFd             // FP register in Rd
	OpndFs             // FP register in Rs
	OpndFt             // FP register in Rt
	OpndImm            // immediate, in decimal
	OpndHi             // upper 16-bit immediate, in hex
	OpndDisp           // branch displacement: a label or a byte count
	OpndTarget         // jump target: a symbol or an absolute address
	OpndMem            // memory operand, spelled per addressing mode

	// Implicit registers, which appear only among uses and defs.
	opndFCC // the FP condition flag
	opndV0
	opndA0
	opndRA
)

// FP reports whether o names a register field read in the FP file.
func (o Operand) FP() bool { return o >= OpndFd && o <= OpndFt }

// encForm is an instruction's binary layout (see encode.go).
type encForm uint8

const (
	formNone encForm = iota // not encodable (BAD)
	formR
	formI
	formJ
)

// immKind is how an instruction's Imm is range-checked and encoded.
type immKind uint8

const (
	immNone     immKind = iota // no immediate; Imm is not encoded
	immSigned                  // 16-bit, sign-extended
	immUnsigned                // 16-bit, zero-extended
	immShift                   // R-form shift amount, 0..31
	immBranch                  // byte displacement from the next instruction, encoded in words
	immJump                    // absolute byte target in the next instruction's 256MB region
)

// opnds is an operand list, packed from the front; unused entries are zero.
type opnds [3]Operand

// A format is the operand shape a group of ops shares. Uses, Defs,
// Encode, Decode, String and the assembler all read it; none of them
// knows an op's shape any other way.
type format struct {
	uses, defs opnds // registers read and written, in Uses and Defs order
	syntax     opnds // assembly operands, in order
	form       encForm
	second     Operand // the field in I-form bits 20:16 (OpndRd or OpndRt)
	imm        immKind
	mode       AddrMode // addressing mode of a memory format
}

// The formats. Every memory format takes its base register from Rs and,
// in the register+register forms, its index from Rt. The data register
// is Rd, except in register+constant and post-increment stores, where it
// is Rt, so I-form bits 20:16 always hold it.
var (
	fmtR3    = format{form: formR, uses: opnds{OpndRs, OpndRt}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndRs, OpndRt}}
	fmtShift = format{form: formR, imm: immShift, uses: opnds{OpndRs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndRs, OpndImm}}
	fmtImm   = format{form: formI, second: OpndRd, imm: immSigned, uses: opnds{OpndRs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndRs, OpndImm}}
	fmtUImm  = format{form: formI, second: OpndRd, imm: immUnsigned, uses: opnds{OpndRs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndRs, OpndImm}}
	fmtLUI   = format{form: formI, second: OpndRd, imm: immUnsigned, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndHi}}

	fmtBr2     = format{form: formI, second: OpndRt, imm: immBranch, uses: opnds{OpndRs, OpndRt}, syntax: opnds{OpndRs, OpndRt, OpndDisp}}
	fmtBr1     = format{form: formI, second: OpndRd, imm: immBranch, uses: opnds{OpndRs}, syntax: opnds{OpndRs, OpndDisp}}
	fmtBrFCC   = format{form: formI, second: OpndRd, imm: immBranch, uses: opnds{opndFCC}, syntax: opnds{OpndDisp}}
	fmtJ       = format{form: formJ, imm: immJump, syntax: opnds{OpndTarget}}
	fmtJAL     = format{form: formJ, imm: immJump, defs: opnds{opndRA}, syntax: opnds{OpndTarget}}
	fmtJR      = format{form: formR, uses: opnds{OpndRs}, syntax: opnds{OpndRs}}
	fmtJALR    = format{form: formR, uses: opnds{OpndRs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndRs}}
	fmtSyscall = format{form: formR, uses: opnds{opndV0, opndA0}, defs: opnds{opndV0}}

	fmtLoad     = format{mode: AMConst, form: formI, second: OpndRd, imm: immSigned, uses: opnds{OpndRs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndMem}}
	fmtLoadF    = format{mode: AMConst, form: formI, second: OpndRd, imm: immSigned, uses: opnds{OpndRs}, defs: opnds{OpndFd}, syntax: opnds{OpndFd, OpndMem}}
	fmtStore    = format{mode: AMConst, form: formI, second: OpndRt, imm: immSigned, uses: opnds{OpndRs, OpndRt}, syntax: opnds{OpndRt, OpndMem}}
	fmtStoreF   = format{mode: AMConst, form: formI, second: OpndRt, imm: immSigned, uses: opnds{OpndRs, OpndFt}, syntax: opnds{OpndFt, OpndMem}}
	fmtLoadX    = format{mode: AMReg, form: formR, uses: opnds{OpndRs, OpndRt}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndMem}}
	fmtLoadXF   = format{mode: AMReg, form: formR, uses: opnds{OpndRs, OpndRt}, defs: opnds{OpndFd}, syntax: opnds{OpndFd, OpndMem}}
	fmtStoreX   = format{mode: AMReg, form: formR, uses: opnds{OpndRs, OpndRt, OpndRd}, syntax: opnds{OpndRd, OpndMem}}
	fmtStoreXF  = format{mode: AMReg, form: formR, uses: opnds{OpndRs, OpndRt, OpndFd}, syntax: opnds{OpndFd, OpndMem}}
	fmtLoadPI   = format{mode: AMPost, form: formI, second: OpndRd, imm: immSigned, uses: opnds{OpndRs}, defs: opnds{OpndRd, OpndRs}, syntax: opnds{OpndRd, OpndMem}}
	fmtLoadPIF  = format{mode: AMPost, form: formI, second: OpndRd, imm: immSigned, uses: opnds{OpndRs}, defs: opnds{OpndFd, OpndRs}, syntax: opnds{OpndFd, OpndMem}}
	fmtStorePI  = format{mode: AMPost, form: formI, second: OpndRt, imm: immSigned, uses: opnds{OpndRs, OpndRt}, defs: opnds{OpndRs}, syntax: opnds{OpndRt, OpndMem}}
	fmtStorePIF = format{mode: AMPost, form: formI, second: OpndRt, imm: immSigned, uses: opnds{OpndRs, OpndFt}, defs: opnds{OpndRs}, syntax: opnds{OpndFt, OpndMem}}

	fmtFP3  = format{form: formR, uses: opnds{OpndFs, OpndFt}, defs: opnds{OpndFd}, syntax: opnds{OpndFd, OpndFs, OpndFt}}
	fmtFP2  = format{form: formR, uses: opnds{OpndFs}, defs: opnds{OpndFd}, syntax: opnds{OpndFd, OpndFs}}
	fmtFCmp = format{form: formR, uses: opnds{OpndFs, OpndFt}, defs: opnds{opndFCC}, syntax: opnds{OpndFs, OpndFt}}
	fmtMTC1 = format{form: formR, uses: opnds{OpndRs}, defs: opnds{OpndFd}, syntax: opnds{OpndFd, OpndRs}}
	fmtMFC1 = format{form: formR, uses: opnds{OpndFs}, defs: opnds{OpndRd}, syntax: opnds{OpndRd, OpndFs}}
)

// opInfo is one op's row of opTable.
type opInfo struct {
	name    string
	class   OpClass
	memSize uint8 // access width in bytes (0 for non-memory)
	format
	opc   uint8 // major opcode; 0 for every R-form op
	funct uint8 // R-form function code
	// variantOf is, for a register+register or post-increment op, the
	// register+constant op the assembler spells it with.
	variantOf Op

	// Derived from the format's defs and uses when the table is built.
	fpDest, fpSrc bool
}

// opTable is the instruction set: each op's mnemonic, functional-unit
// class, access width, format, and opcode or funct. It is the one place
// an op's shape is written down.
var opTable = [NumOps]opInfo{
	BAD: {name: "bad", class: ClassIntALU},

	ADD:  {name: "add", class: ClassIntALU, format: fmtR3, funct: 0},
	SUB:  {name: "sub", class: ClassIntALU, format: fmtR3, funct: 1},
	MUL:  {name: "mul", class: ClassIntMul, format: fmtR3, funct: 2},
	DIV:  {name: "div", class: ClassIntDiv, format: fmtR3, funct: 3},
	DIVU: {name: "divu", class: ClassIntDiv, format: fmtR3, funct: 4},
	REM:  {name: "rem", class: ClassIntDiv, format: fmtR3, funct: 5},
	REMU: {name: "remu", class: ClassIntDiv, format: fmtR3, funct: 6},
	AND:  {name: "and", class: ClassIntALU, format: fmtR3, funct: 7},
	OR:   {name: "or", class: ClassIntALU, format: fmtR3, funct: 8},
	XOR:  {name: "xor", class: ClassIntALU, format: fmtR3, funct: 9},
	NOR:  {name: "nor", class: ClassIntALU, format: fmtR3, funct: 10},
	SLT:  {name: "slt", class: ClassIntALU, format: fmtR3, funct: 11},
	SLTU: {name: "sltu", class: ClassIntALU, format: fmtR3, funct: 12},
	SLLV: {name: "sllv", class: ClassIntALU, format: fmtR3, funct: 13},
	SRLV: {name: "srlv", class: ClassIntALU, format: fmtR3, funct: 14},
	SRAV: {name: "srav", class: ClassIntALU, format: fmtR3, funct: 15},

	ADDI:  {name: "addi", class: ClassIntALU, format: fmtImm, opc: 9},
	ANDI:  {name: "andi", class: ClassIntALU, format: fmtUImm, opc: 10},
	ORI:   {name: "ori", class: ClassIntALU, format: fmtUImm, opc: 11},
	XORI:  {name: "xori", class: ClassIntALU, format: fmtUImm, opc: 12},
	SLTI:  {name: "slti", class: ClassIntALU, format: fmtImm, opc: 13},
	SLTIU: {name: "sltiu", class: ClassIntALU, format: fmtImm, opc: 14},
	SLL:   {name: "sll", class: ClassIntALU, format: fmtShift, funct: 16},
	SRL:   {name: "srl", class: ClassIntALU, format: fmtShift, funct: 17},
	SRA:   {name: "sra", class: ClassIntALU, format: fmtShift, funct: 18},
	LUI:   {name: "lui", class: ClassIntALU, format: fmtLUI, opc: 15},

	BEQ:     {name: "beq", class: ClassBranch, format: fmtBr2, opc: 3},
	BNE:     {name: "bne", class: ClassBranch, format: fmtBr2, opc: 4},
	BLEZ:    {name: "blez", class: ClassBranch, format: fmtBr1, opc: 5},
	BGTZ:    {name: "bgtz", class: ClassBranch, format: fmtBr1, opc: 6},
	BLTZ:    {name: "bltz", class: ClassBranch, format: fmtBr1, opc: 7},
	BGEZ:    {name: "bgez", class: ClassBranch, format: fmtBr1, opc: 8},
	J:       {name: "j", class: ClassJump, format: fmtJ, opc: 1},
	JAL:     {name: "jal", class: ClassJump, format: fmtJAL, opc: 2},
	JR:      {name: "jr", class: ClassJump, format: fmtJR, funct: 19},
	JALR:    {name: "jalr", class: ClassJump, format: fmtJALR, funct: 20},
	SYSCALL: {name: "syscall", class: ClassSyscall, format: fmtSyscall, funct: 21},

	LB:  {name: "lb", class: ClassLoad, memSize: 1, format: fmtLoad, opc: 16},
	LBU: {name: "lbu", class: ClassLoad, memSize: 1, format: fmtLoad, opc: 17},
	LH:  {name: "lh", class: ClassLoad, memSize: 2, format: fmtLoad, opc: 18},
	LHU: {name: "lhu", class: ClassLoad, memSize: 2, format: fmtLoad, opc: 19},
	LW:  {name: "lw", class: ClassLoad, memSize: 4, format: fmtLoad, opc: 20},
	SB:  {name: "sb", class: ClassStore, memSize: 1, format: fmtStore, opc: 21},
	SH:  {name: "sh", class: ClassStore, memSize: 2, format: fmtStore, opc: 22},
	SW:  {name: "sw", class: ClassStore, memSize: 4, format: fmtStore, opc: 23},
	LFD: {name: "lfd", class: ClassLoad, memSize: 8, format: fmtLoadF, opc: 24},
	SFD: {name: "sfd", class: ClassStore, memSize: 8, format: fmtStoreF, opc: 25},

	LBX:  {name: "lbx", class: ClassLoad, memSize: 1, format: fmtLoadX, funct: 22, variantOf: LB},
	LBUX: {name: "lbux", class: ClassLoad, memSize: 1, format: fmtLoadX, funct: 23, variantOf: LBU},
	LHX:  {name: "lhx", class: ClassLoad, memSize: 2, format: fmtLoadX, funct: 24, variantOf: LH},
	LHUX: {name: "lhux", class: ClassLoad, memSize: 2, format: fmtLoadX, funct: 25, variantOf: LHU},
	LWX:  {name: "lwx", class: ClassLoad, memSize: 4, format: fmtLoadX, funct: 26, variantOf: LW},
	SBX:  {name: "sbx", class: ClassStore, memSize: 1, format: fmtStoreX, funct: 27, variantOf: SB},
	SHX:  {name: "shx", class: ClassStore, memSize: 2, format: fmtStoreX, funct: 28, variantOf: SH},
	SWX:  {name: "swx", class: ClassStore, memSize: 4, format: fmtStoreX, funct: 29, variantOf: SW},
	LFDX: {name: "lfdx", class: ClassLoad, memSize: 8, format: fmtLoadXF, funct: 30, variantOf: LFD},
	SFDX: {name: "sfdx", class: ClassStore, memSize: 8, format: fmtStoreXF, funct: 31, variantOf: SFD},

	LWPI:  {name: "lwpi", class: ClassLoad, memSize: 4, format: fmtLoadPI, opc: 26, variantOf: LW},
	SWPI:  {name: "swpi", class: ClassStore, memSize: 4, format: fmtStorePI, opc: 27, variantOf: SW},
	LFDPI: {name: "lfdpi", class: ClassLoad, memSize: 8, format: fmtLoadPIF, opc: 28, variantOf: LFD},
	SFDPI: {name: "sfdpi", class: ClassStore, memSize: 8, format: fmtStorePIF, opc: 29, variantOf: SFD},

	FADD:  {name: "fadd", class: ClassFPAdd, format: fmtFP3, funct: 32},
	FSUB:  {name: "fsub", class: ClassFPAdd, format: fmtFP3, funct: 33},
	FMUL:  {name: "fmul", class: ClassFPMul, format: fmtFP3, funct: 34},
	FDIV:  {name: "fdiv", class: ClassFPDiv, format: fmtFP3, funct: 35},
	FNEG:  {name: "fneg", class: ClassFPAdd, format: fmtFP2, funct: 36},
	FABS:  {name: "fabs", class: ClassFPAdd, format: fmtFP2, funct: 37},
	FMOV:  {name: "fmov", class: ClassFPAdd, format: fmtFP2, funct: 38},
	FCLT:  {name: "fclt", class: ClassFPAdd, format: fmtFCmp, funct: 39},
	FCLE:  {name: "fcle", class: ClassFPAdd, format: fmtFCmp, funct: 40},
	FCEQ:  {name: "fceq", class: ClassFPAdd, format: fmtFCmp, funct: 41},
	BC1T:  {name: "bc1t", class: ClassBranch, format: fmtBrFCC, opc: 30},
	BC1F:  {name: "bc1f", class: ClassBranch, format: fmtBrFCC, opc: 31},
	MTC1:  {name: "mtc1", class: ClassFPAdd, format: fmtMTC1, funct: 42},
	MFC1:  {name: "mfc1", class: ClassFPAdd, format: fmtMFC1, funct: 43},
	CVTDW: {name: "cvtdw", class: ClassFPAdd, format: fmtFP2, funct: 44},
	CVTWD: {name: "cvtwd", class: ClassFPAdd, format: fmtFP2, funct: 45},
}

func init() {
	for op := range opTable {
		info := &opTable[op]
		info.fpDest, info.fpSrc = hasFP(info.defs), hasFP(info.uses)
	}
}

func hasFP(list opnds) bool {
	for _, o := range list {
		if o.FP() {
			return true
		}
	}
	return false
}

// String returns the assembly mnemonic.
func (o Op) String() string {
	if o < NumOps {
		return opTable[o].name
	}
	return "op?"
}

// Class reports the functional-unit class of the operation.
func (o Op) Class() OpClass { return opTable[o].class }

// Mode reports the addressing mode of a memory operation (AMNone otherwise).
func (o Op) Mode() AddrMode { return opTable[o].mode }

// MemSize reports the access width in bytes of a memory operation, or 0.
func (o Op) MemSize() int { return int(opTable[o].memSize) }

// IsLoad reports whether the operation reads data memory.
func (o Op) IsLoad() bool { return opTable[o].class == ClassLoad }

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool { return opTable[o].class == ClassStore }

// IsMem reports whether the operation accesses data memory.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

// IsBranch reports whether the operation is a conditional branch.
func (o Op) IsBranch() bool { return opTable[o].class == ClassBranch }

// IsJump reports whether the operation is an unconditional control transfer.
func (o Op) IsJump() bool { return opTable[o].class == ClassJump }

// IsControl reports whether the operation can redirect the PC.
func (o Op) IsControl() bool { return o.IsBranch() || o.IsJump() }

// FPDest reports whether a register the operation writes is an FP register.
func (o Op) FPDest() bool { return opTable[o].fpDest }

// FPSrc reports whether a register the operation reads is an FP register.
func (o Op) FPSrc() bool { return opTable[o].fpSrc }

// Syntax returns the operands of the operation's assembly syntax, in
// order. The slice is the table's own; callers must not modify it.
func (o Op) Syntax() []Operand {
	s := opTable[o].syntax[:]
	for n, opnd := range s {
		if opnd == opndNone {
			return s[:n:n]
		}
	}
	return s
}

// Variant returns memory operation o's form in addressing mode m: o
// itself when o has mode m, the register+register or post-increment form
// of a register+constant operation, and BAD when there is none.
func (o Op) Variant(m AddrMode) Op { return variants[o][m] }

var variants = func() (v [NumOps][AMPost + 1]Op) {
	for op := Op(1); op < NumOps; op++ {
		info := &opTable[op]
		if info.mode == AMNone {
			continue
		}
		v[op][info.mode] = op
		if info.variantOf != BAD {
			v[info.variantOf][info.mode] = op
		}
	}
	return v
}()

// OpByName maps an assembly mnemonic to its Op.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(1); op < NumOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()
