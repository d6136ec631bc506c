package asm

import (
	"encoding/binary"
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

// emit generates instructions and data images.
func (a *assembler) emit() error {
	var off [prog.NumSections]uint32
	for _, s := range a.stmts {
		switch s.kind {
		case stLabel:
			// Offsets were fixed during layout; nothing to emit.
		case stDirective:
			if err := a.emitDirective(s, &off); err != nil {
				return err
			}
		case stInst:
			want, err := a.instSize(s)
			if err != nil {
				return err
			}
			before := len(a.text)
			if err := a.emitInst(s); err != nil {
				return err
			}
			if got := len(a.text) - before; got != want {
				return errLine(s.line, "internal: %s expanded to %d insts, layout said %d", s.name, got, want)
			}
		}
	}
	return nil
}

func (a *assembler) emitDirective(s stmt, off *[prog.NumSections]uint32) error {
	size, al, err := a.directiveSize(s)
	if err != nil {
		return err
	}
	if s.sec == prog.SecText || s.name == ".comm" {
		return nil
	}
	img := &a.images[s.sec]
	if al > 1 {
		target := alignUp(off[s.sec], al)
		*img = append(*img, make([]byte, target-off[s.sec])...)
		off[s.sec] = target
	}
	start := off[s.sec]
	switch s.name {
	case ".word":
		for i, arg := range s.args {
			if isSymbolOperand(arg) {
				sym, add, err := splitSymRef(arg, s.line)
				if err != nil {
					return err
				}
				a.relocs = append(a.relocs, prog.Reloc{
					Kind: prog.RelWord32, Sym: sym, Addend: add,
					Section: s.sec, Off: start + uint32(4*i),
				})
				*img = append(*img, 0, 0, 0, 0)
				continue
			}
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			*img = binary.LittleEndian.AppendUint32(*img, uint32(v))
		}
	case ".half":
		for _, arg := range s.args {
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			*img = binary.LittleEndian.AppendUint16(*img, uint16(v))
		}
	case ".byte":
		for _, arg := range s.args {
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			*img = append(*img, byte(v))
		}
	case ".double":
		for _, arg := range s.args {
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return errLine(s.line, "bad double %q", arg)
			}
			*img = binary.LittleEndian.AppendUint64(*img, math.Float64bits(f))
		}
	case ".space":
		*img = append(*img, make([]byte, size)...)
	case ".ascii", ".asciiz":
		str, err := decodeString(s.args[0], s.line)
		if err != nil {
			return err
		}
		*img = append(*img, str...)
		if s.name == ".asciiz" {
			*img = append(*img, 0)
		}
	}
	off[s.sec] = uint32(len(*img))
	return nil
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

// branchDisp resolves a branch target operand into a byte displacement
// relative to the instruction after the branch being emitted.
func (a *assembler) branchDisp(arg string, line int) (int32, error) {
	if idx, ok := a.textLabels[arg]; ok {
		return int32(idx-(len(a.text)+1)) * 4, nil
	}
	if isIdent(arg) && !strings.HasPrefix(arg, "$") {
		return 0, errLine(line, "undefined label %q", arg)
	}
	return parseInt32(arg, line)
}

func (a *assembler) need(s stmt, n int) error {
	if len(s.args) != n {
		return errLine(s.line, "%s needs %d operands, got %d", s.name, n, len(s.args))
	}
	return nil
}
