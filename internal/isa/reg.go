// Package isa defines the extended MIPS-I-like instruction set used by the
// fast-address-calculation study: a 32-bit RISC ISA with register+constant,
// register+register, and post-increment/decrement addressing modes and no
// architected delay slots, exactly as described in Section 5.1 of Austin,
// Pnevmatikatos & Sohi (ISCA 1995).
//
// The package provides the instruction representation shared by the
// assembler, emulator, and timing simulator, together with a dense 32-bit
// binary encoding and a disassembler.
package isa

import (
	"fmt"
	"strings"
)

// Reg names one of the 32 integer registers or, in FP instruction fields,
// one of the 32 floating-point registers.
type Reg uint8

// Integer register conventions (MIPS o32-style). The fast address
// calculation hardware and the reference-behavior profiler classify
// accesses by base register: GP-based accesses are "global pointer"
// references, SP/FP-based accesses are "stack pointer" references, and
// everything else is a "general pointer" reference (paper Section 2).
const (
	Zero Reg = 0 // hardwired zero
	AT   Reg = 1 // assembler temporary
	V0   Reg = 2 // function result / syscall code
	V1   Reg = 3 // function result
	A0   Reg = 4 // argument 0
	A1   Reg = 5 // argument 1
	A2   Reg = 6 // argument 2
	A3   Reg = 7 // argument 3
	T0   Reg = 8 // caller-saved temporaries
	T1   Reg = 9
	T2   Reg = 10
	T3   Reg = 11
	T4   Reg = 12
	T5   Reg = 13
	T6   Reg = 14
	T7   Reg = 15
	S0   Reg = 16 // callee-saved
	S1   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	T8   Reg = 24
	T9   Reg = 25
	K0   Reg = 26 // reserved
	K1   Reg = 27 // reserved
	GP   Reg = 28 // global pointer
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

// NumRegs is the size of each architectural register file.
const NumRegs = 32

var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// String returns the conventional assembly name of the integer register,
// e.g. "$sp" for register 29.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// FPName returns the assembly name used when the register number denotes a
// floating-point register, e.g. "$f4".
func (r Reg) FPName() string { return fmt.Sprintf("$f%d", uint8(r)) }

// RegByName maps an assembly register name (without the leading '$') to its
// number. Both conventional names ("sp") and numeric names ("r29", "29")
// are accepted; a number is decimal digits only, 0 to 31.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return regNumber(strings.TrimPrefix(name, "r"))
}

// FPRegByName maps an FP register name (without the leading '$'), "f0"
// to "f31", to its number.
func FPRegByName(name string) (Reg, bool) {
	n, ok := strings.CutPrefix(name, "f")
	if !ok {
		return 0, false
	}
	return regNumber(n)
}

// regNumber parses a register number: decimal digits only, no sign and
// nothing trailing, with a value below NumRegs.
func regNumber(s string) (Reg, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n >= NumRegs {
			return 0, false
		}
	}
	return Reg(n), true
}
