package asm

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

func parseInt32(s string, line int) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
		return 0, errLine(line, "bad integer %q", s)
	}
	return int32(v), nil // values in [2^31, 2^32) wrap to their bit pattern
}

// reg parses an integer register operand.
func parseReg(s string, line int) (isa.Reg, error) {
	if !strings.HasPrefix(s, "$") {
		return 0, errLine(line, "expected register, got %q", s)
	}
	r, ok := isa.RegByName(s[1:])
	if !ok {
		return 0, errLine(line, "unknown register %q", s)
	}
	return r, nil
}

// parseFPReg parses an FP register operand, "$f0" to "$f31".
func parseFPReg(s string, line int) (isa.Reg, error) {
	if !strings.HasPrefix(s, "$f") {
		return 0, errLine(line, "expected FP register, got %q", s)
	}
	r, ok := isa.FPRegByName(s[1:])
	if !ok {
		return 0, errLine(line, "unknown FP register %q", s)
	}
	return r, nil
}

// immRef is an immediate that may carry a relocation.
type immRef struct {
	val   int32
	kind  prog.RelocKind
	sym   string
	reloc bool
}

// parseImmRef parses an immediate or a %hi/%lo/%gprel symbol expression.
func parseImmRef(s string, line int) (immRef, error) {
	if strings.HasPrefix(s, "%") {
		open := strings.IndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return immRef{}, errLine(line, "bad reloc expression %q", s)
		}
		var kind prog.RelocKind
		switch s[:open] {
		case "%hi":
			kind = prog.RelHi16
		case "%lo":
			kind = prog.RelLo16
		case "%gprel":
			kind = prog.RelGPRel
		default:
			return immRef{}, errLine(line, "unknown reloc %q", s[:open])
		}
		sym, add, err := splitSymRef(s[open+1:len(s)-1], line)
		if err != nil {
			return immRef{}, err
		}
		return immRef{val: add, kind: kind, sym: sym, reloc: true}, nil
	}
	v, err := parseInt32(s, line)
	if err != nil {
		return immRef{}, err
	}
	return immRef{val: v}, nil
}

// memOperand describes a parsed memory operand.
type memOperand struct {
	form  isa.AddrMode // AMConst, AMReg, AMPost; AMNone for bare symbol
	base  isa.Reg
	index isa.Reg
	off   immRef
	sym   string // bare symbol form
	add   int32
}

func parseMemOperand(arg string, line int) (memOperand, error) {
	if isSymbolOperand(arg) {
		sym, add, err := splitSymRef(arg, line)
		if err != nil {
			return memOperand{}, err
		}
		return memOperand{form: isa.AMNone, sym: sym, add: add}, nil
	}
	open := strings.IndexByte(arg, '(')
	if open < 0 {
		return memOperand{}, errLine(line, "bad memory operand %q", arg)
	}
	// %lo(sym)($at): the offset expression itself contains parens.
	if strings.HasPrefix(arg, "%") {
		close1 := strings.IndexByte(arg, ')')
		if close1 < 0 {
			return memOperand{}, errLine(line, "bad memory operand %q", arg)
		}
		open = strings.IndexByte(arg[close1:], '(')
		if open < 0 {
			return memOperand{}, errLine(line, "bad memory operand %q", arg)
		}
		open += close1
	}
	prefix := strings.TrimSpace(arg[:open])
	rest := arg[open:]
	close2 := strings.LastIndexByte(rest, ')')
	if close2 < 0 {
		return memOperand{}, errLine(line, "unbalanced parens in %q", arg)
	}
	inside := strings.TrimSpace(rest[1:close2])
	suffix := strings.TrimSpace(rest[close2+1:])

	if plus := strings.IndexByte(inside, '+'); plus >= 0 {
		// ($base+$index)
		if prefix != "" || suffix != "" {
			return memOperand{}, errLine(line, "bad register+register operand %q", arg)
		}
		base, err := parseReg(strings.TrimSpace(inside[:plus]), line)
		if err != nil {
			return memOperand{}, err
		}
		idx, err := parseReg(strings.TrimSpace(inside[plus+1:]), line)
		if err != nil {
			return memOperand{}, err
		}
		return memOperand{form: isa.AMReg, base: base, index: idx}, nil
	}
	base, err := parseReg(inside, line)
	if err != nil {
		return memOperand{}, err
	}
	if suffix != "" {
		// ($base)+imm or ($base)-imm: post-increment.
		if prefix != "" {
			return memOperand{}, errLine(line, "bad post-increment operand %q", arg)
		}
		inc, err := parseInt32(strings.TrimPrefix(suffix, "+"), line)
		if err != nil {
			return memOperand{}, err
		}
		return memOperand{form: isa.AMPost, base: base, off: immRef{val: inc}}, nil
	}
	off := immRef{}
	if prefix != "" {
		if off, err = parseImmRef(prefix, line); err != nil {
			return memOperand{}, err
		}
	}
	return memOperand{form: isa.AMConst, base: base, off: off}, nil
}

// push appends one machine instruction.
func (a *assembler) push(s stmt, in isa.Inst) {
	a.text = append(a.text, in)
	a.srcLines = append(a.srcLines, s.line)
}

// pushImm appends an instruction whose immediate may carry a relocation.
func (a *assembler) pushImm(s stmt, in isa.Inst, imm immRef) {
	in.Imm = imm.val
	if imm.reloc {
		a.relocs = append(a.relocs, prog.Reloc{
			Kind: imm.kind, Sym: imm.sym, Addend: imm.val, InstIndex: len(a.text),
		})
		in.Imm = 0
	}
	a.push(s, in)
}

// branchDisp returns the byte displacement of the branch about to be
// pushed, relative to the instruction after it. A label operand records a
// fixup, patched once every label is bound, and returns zero.
func (a *assembler) branchDisp(arg string, line int) (int32, error) {
	if isIdent(arg) {
		a.fixups = append(a.fixups, fixup{inst: len(a.text), label: arg, line: line})
		return 0, nil
	}
	return parseInt32(arg, line)
}

func (a *assembler) need(s stmt, n int) error {
	if len(s.args) != n {
		return errLine(s.line, "%s needs %d operands, got %d", s.name, n, len(s.args))
	}
	return nil
}
