//lint:hotpath StepInto runs once per emulated instruction, and memOp reads the ISA op table per access.

// Package emu implements the user-level functional emulator for the
// extended MIPS-like ISA. It executes linked programs, services the small
// syscall set used by the runtime library, and produces per-instruction
// trace records carrying everything the timing simulator and the
// fast-address-calculation predictor need: the dynamic instruction, its
// effective address, and the raw base/offset operand values of every memory
// access.
package emu

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Syscall codes (in $v0 at the syscall instruction).
const (
	SysPrintInt    = 1
	SysPrintDouble = 3
	SysPrintString = 4
	SysSbrk        = 9
	SysExit        = 10
	SysPrintChar   = 11
)

// Trace describes one executed instruction.
type Trace struct {
	PC     uint32
	Inst   isa.Inst
	NextPC uint32
	// Pre points at the pre-decoded form of Inst when the producer holds a
	// pre-decode table (the emulator shares the program's). The timing
	// model falls back to isa.Predecode when nil, so hand-built traces stay
	// valid there; the reference profiler requires it.
	Pre *isa.Pre
	// Memory access operands (valid when Inst.Op.IsMem()):
	EffAddr     uint32 // the architectural effective address
	Base        uint32 // base register value at execute time
	Offset      uint32 // offset value (sign-extended constant or index register)
	IsRegOffset bool   // offset came from the register file
	// MemVal is the register-visible transferred value of an integer
	// access (the loaded value as written to the destination, or the
	// stored register value); HasMemVal gates it. FP and 64-bit accesses
	// leave it unset. The static value-soundness oracle compares these
	// against staticfac's per-site cell claims.
	MemVal    uint32
	HasMemVal bool
	// Branch outcome (valid when Inst.Op.IsBranch()):
	Taken bool
}

// Emulator holds the architectural state of a running program.
type Emulator struct {
	Prog     *prog.Program
	Mem      *mem.Memory
	insts    []isa.Inst // Prog.Insts
	pre      []isa.Pre  // the program's pre-decode table, indexed like insts
	textBase uint32     // Prog.TextBase

	R   [isa.NumRegs]uint32
	F   [isa.NumRegs]float64
	FCC bool
	PC  uint32
	Brk uint32

	Out       bytes.Buffer
	Halted    bool
	ExitCode  int32
	InstCount uint64

	// MaxInsts aborts execution with an error when exceeded (0 = no limit).
	MaxInsts uint64
}

// New creates an emulator with a fresh memory image and the architectural
// startup state (PC at the entry point, GP and SP initialized — the work a
// real crt0/kernel would do).
func New(p *prog.Program) *Emulator {
	e := &Emulator{
		Prog:     p,
		Mem:      p.NewMemory(),
		insts:    p.Insts,
		pre:      p.Predecoded(),
		textBase: p.TextBase,
		PC:       p.Entry,
		Brk:      p.HeapBase,
	}
	e.R[isa.GP] = p.GP
	e.R[isa.SP] = p.SP
	e.R[isa.RA] = haltAddr
	return e
}

// haltAddr is the return address planted in $ra at startup: a jr to it
// terminates the program (mirrors returning from main into exit()).
const haltAddr = 0xFFFF0000

func signExt16(v int32) uint32 { return uint32(v) }

// Step executes one instruction. It returns the trace record and an error
// for architectural faults (unaligned access, bad PC, division by zero).
// Stepping a halted emulator returns ErrHalted.
//
// Step copies each trace out; every caller in this module uses StepInto.
// Step remains because the benchmark module's layer ledger (perfbench)
// calls it, and goes once that ledger is ported.
func (e *Emulator) Step() (Trace, error) {
	var tr Trace
	err := e.StepInto(&tr)
	return tr, err
}

// StepInto is Step writing the trace record in place — the allocation-free
// form the batched trace source uses (the destination is a reused buffer
// slot, so every field is overwritten).
func (e *Emulator) StepInto(tr *Trace) error {
	// One text index serves the instruction and its pre-decoded form.
	i := (e.PC - e.textBase) / isa.InstBytes
	if e.Halted || e.MaxInsts != 0 && e.InstCount >= e.MaxInsts ||
		e.PC < e.textBase || e.PC&3 != 0 || i >= uint32(len(e.insts)) {
		return e.cannotStep()
	}
	in := e.insts[i]
	// Assigning every field writes the trace in place: a composite literal
	// would be built in a stack temporary and copied, and zeroing the slot
	// first would store Pre twice. TestStepIntoOverwritesEveryField fails
	// if a field is left out.
	tr.PC, tr.Inst, tr.NextPC, tr.Pre = e.PC, in, e.PC+isa.InstBytes, &e.pre[i]
	tr.EffAddr, tr.Base, tr.Offset, tr.IsRegOffset = 0, 0, 0, false
	tr.MemVal, tr.HasMemVal, tr.Taken = 0, false, false
	if err := e.exec(in, tr); err != nil {
		return e.fault(in, err)
	}
	e.R[isa.Zero] = 0
	e.InstCount++
	e.PC = tr.NextPC
	if e.PC == haltAddr && !e.Halted {
		e.Halted = true
		e.ExitCode = int32(e.R[isa.V0])
	}
	return nil
}

// cannotStep names why StepInto cannot start its instruction, testing in
// order: the program has halted, the budget is spent, or the PC is not an
// instruction (InstAt's checks). Kept out of StepInto, whose hot path it
// would otherwise slow.
func (e *Emulator) cannotStep() error {
	if e.Halted {
		return ErrHalted
	}
	if e.MaxInsts != 0 && e.InstCount >= e.MaxInsts {
		return fmt.Errorf("emu: instruction budget %d exceeded at pc %#x", e.MaxInsts, e.PC)
	}
	return fmt.Errorf("emu: bad pc %#x", e.PC)
}

// fault wraps an architectural fault of the instruction in at e.PC.
func (e *Emulator) fault(in isa.Inst, err error) error {
	return fmt.Errorf("emu: pc %#x (%v in %s): %w", e.PC, in, e.Prog.FuncName(e.PC), err)
}

// ErrHalted is returned by Step once the program has exited.
var ErrHalted = fmt.Errorf("emu: program halted")

// Run executes until the program exits or faults.
func (e *Emulator) Run() error {
	var tr Trace
	for !e.Halted {
		if err := e.StepInto(&tr); err != nil {
			return err
		}
	}
	return nil
}

func (e *Emulator) exec(in isa.Inst, tr *Trace) error {
	r := &e.R
	sv := func(x uint32) int32 { return int32(x) }
	switch in.Op {
	case isa.ADD:
		r[in.Rd] = r[in.Rs] + r[in.Rt]
	case isa.SUB:
		r[in.Rd] = r[in.Rs] - r[in.Rt]
	case isa.MUL:
		r[in.Rd] = uint32(sv(r[in.Rs]) * sv(r[in.Rt]))
	case isa.DIV:
		if r[in.Rt] == 0 {
			return fmt.Errorf("integer division by zero")
		}
		r[in.Rd] = uint32(sv(r[in.Rs]) / sv(r[in.Rt]))
	case isa.DIVU:
		if r[in.Rt] == 0 {
			return fmt.Errorf("integer division by zero")
		}
		r[in.Rd] = r[in.Rs] / r[in.Rt]
	case isa.REM:
		if r[in.Rt] == 0 {
			return fmt.Errorf("integer division by zero")
		}
		r[in.Rd] = uint32(sv(r[in.Rs]) % sv(r[in.Rt]))
	case isa.REMU:
		if r[in.Rt] == 0 {
			return fmt.Errorf("integer division by zero")
		}
		r[in.Rd] = r[in.Rs] % r[in.Rt]
	case isa.AND:
		r[in.Rd] = r[in.Rs] & r[in.Rt]
	case isa.OR:
		r[in.Rd] = r[in.Rs] | r[in.Rt]
	case isa.XOR:
		r[in.Rd] = r[in.Rs] ^ r[in.Rt]
	case isa.NOR:
		r[in.Rd] = ^(r[in.Rs] | r[in.Rt])
	case isa.SLT:
		r[in.Rd] = b2u(sv(r[in.Rs]) < sv(r[in.Rt]))
	case isa.SLTU:
		r[in.Rd] = b2u(r[in.Rs] < r[in.Rt])
	case isa.SLLV:
		r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
	case isa.SRLV:
		r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
	case isa.SRAV:
		r[in.Rd] = uint32(sv(r[in.Rs]) >> (r[in.Rt] & 31))

	case isa.ADDI:
		r[in.Rd] = r[in.Rs] + signExt16(in.Imm)
	case isa.ANDI:
		r[in.Rd] = r[in.Rs] & uint32(in.Imm)
	case isa.ORI:
		r[in.Rd] = r[in.Rs] | uint32(in.Imm)
	case isa.XORI:
		r[in.Rd] = r[in.Rs] ^ uint32(in.Imm)
	case isa.SLTI:
		r[in.Rd] = b2u(sv(r[in.Rs]) < in.Imm)
	case isa.SLTIU:
		r[in.Rd] = b2u(r[in.Rs] < uint32(in.Imm))
	case isa.SLL:
		r[in.Rd] = r[in.Rs] << uint32(in.Imm&31)
	case isa.SRL:
		r[in.Rd] = r[in.Rs] >> uint32(in.Imm&31)
	case isa.SRA:
		r[in.Rd] = uint32(sv(r[in.Rs]) >> uint32(in.Imm&31))
	case isa.LUI:
		r[in.Rd] = uint32(in.Imm) << 16

	case isa.BEQ:
		e.branch(tr, r[in.Rs] == r[in.Rt], in.Imm)
	case isa.BNE:
		e.branch(tr, r[in.Rs] != r[in.Rt], in.Imm)
	case isa.BLEZ:
		e.branch(tr, sv(r[in.Rs]) <= 0, in.Imm)
	case isa.BGTZ:
		e.branch(tr, sv(r[in.Rs]) > 0, in.Imm)
	case isa.BLTZ:
		e.branch(tr, sv(r[in.Rs]) < 0, in.Imm)
	case isa.BGEZ:
		e.branch(tr, sv(r[in.Rs]) >= 0, in.Imm)
	case isa.BC1T:
		e.branch(tr, e.FCC, in.Imm)
	case isa.BC1F:
		e.branch(tr, !e.FCC, in.Imm)
	case isa.J:
		tr.NextPC = uint32(in.Imm)
	case isa.JAL:
		r[isa.RA] = tr.PC + isa.InstBytes
		tr.NextPC = uint32(in.Imm)
	case isa.JR:
		tr.NextPC = r[in.Rs]
	case isa.JALR:
		link := tr.PC + isa.InstBytes
		tr.NextPC = r[in.Rs]
		r[in.Rd] = link
	case isa.SYSCALL:
		return e.syscall(tr)

	case isa.FADD:
		e.F[in.Rd] = e.F[in.Rs] + e.F[in.Rt]
	case isa.FSUB:
		e.F[in.Rd] = e.F[in.Rs] - e.F[in.Rt]
	case isa.FMUL:
		e.F[in.Rd] = e.F[in.Rs] * e.F[in.Rt]
	case isa.FDIV:
		e.F[in.Rd] = e.F[in.Rs] / e.F[in.Rt]
	case isa.FNEG:
		e.F[in.Rd] = -e.F[in.Rs]
	case isa.FABS:
		e.F[in.Rd] = math.Abs(e.F[in.Rs])
	case isa.FMOV:
		e.F[in.Rd] = e.F[in.Rs]
	case isa.FCLT:
		e.FCC = e.F[in.Rs] < e.F[in.Rt]
	case isa.FCLE:
		e.FCC = e.F[in.Rs] <= e.F[in.Rt]
	case isa.FCEQ:
		e.FCC = e.F[in.Rs] == e.F[in.Rt]
	case isa.MTC1:
		e.F[in.Rd] = math.Float64frombits(uint64(r[in.Rs]))
	case isa.MFC1:
		r[in.Rd] = uint32(math.Float64bits(e.F[in.Rs]))
	case isa.CVTDW:
		e.F[in.Rd] = float64(int32(uint32(math.Float64bits(e.F[in.Rs]))))
	case isa.CVTWD:
		e.F[in.Rd] = math.Float64frombits(uint64(uint32(int32(e.F[in.Rs]))))

	default:
		if tr.Pre.IsMem() {
			return e.memOp(in, tr)
		}
		return fmt.Errorf("unimplemented op %v", in.Op)
	}
	return nil
}

func (e *Emulator) branch(tr *Trace, taken bool, disp int32) {
	tr.Taken = taken
	if taken {
		tr.NextPC = tr.PC + isa.InstBytes + uint32(disp)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// memOp executes a load or store, recording the operand values the
// fast-address-calculation predictor sees.
func (e *Emulator) memOp(in isa.Inst, tr *Trace) error {
	pre := tr.Pre
	base := e.R[in.BaseReg()]
	var ofs uint32
	switch {
	case pre.Flags&isa.PreRegOffset != 0:
		ofs = e.R[in.IndexReg()]
		tr.IsRegOffset = true
	case pre.Flags&isa.PrePostInc != 0:
		ofs = 0 // the access uses the base directly; increment is post
	default:
		ofs = signExt16(in.Imm)
	}
	addr := base + ofs
	tr.EffAddr, tr.Base, tr.Offset = addr, base, ofs

	size := int(pre.MemSize)
	if addr&uint32(size-1) != 0 {
		return fmt.Errorf("unaligned %d-byte access at %#x", size, addr)
	}
	if pre.IsLoad() {
		switch in.Op {
		case isa.LB, isa.LBX:
			e.R[in.Rd] = uint32(int32(int8(e.Mem.Read8(addr))))
		case isa.LBU, isa.LBUX:
			e.R[in.Rd] = uint32(e.Mem.Read8(addr))
		case isa.LH, isa.LHX:
			e.R[in.Rd] = uint32(int32(int16(e.Mem.Read16(addr))))
		case isa.LHU, isa.LHUX:
			e.R[in.Rd] = uint32(e.Mem.Read16(addr))
		case isa.LW, isa.LWX, isa.LWPI:
			e.R[in.Rd] = e.Mem.Read32(addr)
		case isa.LFD, isa.LFDX, isa.LFDPI:
			e.F[in.Rd] = math.Float64frombits(e.Mem.Read64(addr))
		}
		if !in.Op.FPDest() {
			tr.MemVal, tr.HasMemVal = e.R[in.Rd], true
		}
	} else {
		data := in.StoreDataReg()
		switch in.Op {
		case isa.SB, isa.SBX:
			e.Mem.Write8(addr, byte(e.R[data]))
		case isa.SH, isa.SHX:
			e.Mem.Write16(addr, uint16(e.R[data]))
		case isa.SW, isa.SWX, isa.SWPI:
			e.Mem.Write32(addr, e.R[data])
		case isa.SFD, isa.SFDX, isa.SFDPI:
			e.Mem.Write64(addr, math.Float64bits(e.F[data]))
		}
		if !in.Op.FPSrc() {
			tr.MemVal, tr.HasMemVal = e.R[data], true
		}
	}
	if pre.Flags&isa.PrePostInc != 0 {
		e.R[in.Rs] = base + signExt16(in.Imm)
	}
	return nil
}

func (e *Emulator) syscall(tr *Trace) error {
	switch e.R[isa.V0] {
	case SysPrintInt:
		fmt.Fprintf(&e.Out, "%d", int32(e.R[isa.A0]))
	case SysPrintDouble:
		fmt.Fprintf(&e.Out, "%g", e.F[12])
	case SysPrintString:
		e.Out.WriteString(e.Mem.ReadCString(e.R[isa.A0], 1<<20))
	case SysPrintChar:
		e.Out.WriteByte(byte(e.R[isa.A0]))
	case SysSbrk:
		old := e.Brk
		e.Brk += e.R[isa.A0]
		e.R[isa.V0] = old
	case SysExit:
		e.Halted = true
		e.ExitCode = int32(e.R[isa.A0])
	default:
		return fmt.Errorf("unknown syscall %d", e.R[isa.V0])
	}
	return nil
}
