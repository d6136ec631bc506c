package asm

import (
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// maxSectionBytes bounds every section image (and the BSS reservation).
// Directive sizes are attacker-controlled 32-bit values; without a cap a
// single ".space 4294967295" materializes a 4GB image. 256MB is far above
// any real program while keeping assembly time and memory bounded.
const maxSectionBytes = 1 << 28

// maxBalign bounds explicit alignment requests, mirroring .align's cap of
// 2^12: larger alignments only ever manufacture padding gigabytes.
const maxBalign = 1 << 12

// layout computes section offsets for every label and the expanded size of
// every instruction, so branch displacements can be resolved during emit.
func (a *assembler) layout() error {
	var off [prog.NumSections]uint32
	textIdx := 0
	// Data labels bind after the auto-alignment of the directive that
	// follows them, so "x: .double 1.0" labels the aligned datum.
	var pending []string
	flushPending := func() {
		for _, name := range pending {
			sym := a.syms[name]
			sym.Off = off[sym.Section]
			a.syms[name] = sym
		}
		pending = pending[:0]
	}
	for _, s := range a.stmts {
		switch s.kind {
		case stLabel:
			if s.sec == prog.SecText {
				sym := a.syms[s.name]
				sym.Off = uint32(textIdx * 4)
				a.syms[s.name] = sym
				a.textLabels[s.name] = textIdx
			} else {
				pending = append(pending, s.name)
			}
		case stDirective:
			if s.name == ".comm" {
				if err := a.allocComm(s); err != nil {
					return err
				}
				continue
			}
			n, al, err := a.directiveSize(s)
			if err != nil {
				return err
			}
			if al > 1 {
				off[s.sec] = alignUp(off[s.sec], al)
			}
			flushPending()
			off[s.sec] += n
			if off[s.sec] > maxSectionBytes {
				return errLine(s.line, "section grows past %d bytes", maxSectionBytes)
			}
		case stInst:
			flushPending() // labels in a data section before .text switch
			n, err := a.instSize(s)
			if err != nil {
				return err
			}
			textIdx += n
			if textIdx > maxSectionBytes/4 {
				return errLine(s.line, "text grows past %d instructions", maxSectionBytes/4)
			}
		}
	}
	flushPending()
	return nil
}

// allocComm reserves BSS space for a .comm directive (done once, during
// layout).
func (a *assembler) allocComm(s stmt) error {
	if len(s.args) < 2 {
		return errLine(s.line, ".comm needs name, size")
	}
	size, err := parseUint(s.args, 1, s.line)
	if err != nil {
		return err
	}
	al := uint32(4)
	if len(s.args) >= 3 {
		if al, err = parseUint(s.args, 2, s.line); err != nil {
			return err
		}
		if al == 0 || al&(al-1) != 0 {
			return errLine(s.line, ".comm alignment %d not a power of two", al)
		}
		if al > maxBalign {
			return errLine(s.line, ".comm alignment %d too large", al)
		}
	}
	if size > maxSectionBytes || a.bss > maxSectionBytes-size {
		return errLine(s.line, ".comm grows bss past %d bytes", maxSectionBytes)
	}
	a.bss = alignUp(a.bss, al)
	sym := a.syms[s.args[0]]
	sym.Off = a.bss
	sym.Size = size
	a.syms[s.args[0]] = sym
	a.bss += size
	return nil
}

func alignUp(v, a uint32) uint32 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// directiveSize returns (size, alignment) of a data directive. .comm
// directives allocate BSS immediately (their placement is independent of
// statement order).
func (a *assembler) directiveSize(s stmt) (size, align uint32, err error) {
	switch s.name {
	case ".text", ".data", ".sdata", ".bss", ".globl", ".ent", ".end":
		return 0, 1, nil
	case ".align":
		n, err := parseUint(s.args, 0, s.line)
		if err != nil {
			return 0, 0, err
		}
		if n > 12 {
			return 0, 0, errLine(s.line, ".align %d too large", n)
		}
		return 0, 1 << n, nil
	case ".balign":
		n, err := parseUint(s.args, 0, s.line)
		if err != nil {
			return 0, 0, err
		}
		if n == 0 || n&(n-1) != 0 {
			return 0, 0, errLine(s.line, ".balign %d not a power of two", n)
		}
		if n > maxBalign {
			return 0, 0, errLine(s.line, ".balign %d too large", n)
		}
		return 0, n, nil
	case ".word":
		return uint32(4 * len(s.args)), 4, nil
	case ".half":
		return uint32(2 * len(s.args)), 2, nil
	case ".byte":
		return uint32(len(s.args)), 1, nil
	case ".double":
		return uint32(8 * len(s.args)), 8, nil
	case ".space":
		n, err := parseUint(s.args, 0, s.line)
		if err != nil {
			return 0, 0, err
		}
		if n > maxSectionBytes {
			return 0, 0, errLine(s.line, ".space %d too large", n)
		}
		return n, 1, nil
	case ".ascii", ".asciiz":
		if len(s.args) != 1 {
			return 0, 0, errLine(s.line, "%s needs one string", s.name)
		}
		str, err := decodeString(s.args[0], s.line)
		if err != nil {
			return 0, 0, err
		}
		n := uint32(len(str))
		if s.name == ".asciiz" {
			n++
		}
		return n, 1, nil
	case ".comm":
		return 0, 1, nil
	}
	return 0, 0, errLine(s.line, "unknown directive %s", s.name)
}

func parseUint(args []string, i, line int) (uint32, error) {
	if i >= len(args) {
		return 0, errLine(line, "missing argument")
	}
	v, err := strconv.ParseUint(strings.TrimSpace(args[i]), 0, 32)
	if err != nil {
		return 0, errLine(line, "bad number %q", args[i])
	}
	return uint32(v), nil
}

func decodeString(lit string, line int) (string, error) {
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return "", errLine(line, "bad string literal %s", lit)
	}
	body := lit[1 : len(lit)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", errLine(line, "trailing backslash in string")
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		default:
			return "", errLine(line, "bad escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// instSize returns the number of machine instructions a (possibly pseudo)
// instruction expands to. It must agree exactly with emitInst.
func (a *assembler) instSize(s stmt) (int, error) {
	switch s.name {
	case "li":
		if len(s.args) != 2 {
			return 0, errLine(s.line, "li needs 2 operands")
		}
		v, err := parseInt32(s.args[1], s.line)
		if err != nil {
			return 0, err
		}
		if fitsSigned16(v) || fitsUnsigned16(v) {
			return 1, nil
		}
		if v&0xFFFF == 0 {
			return 1, nil // lui alone
		}
		return 2, nil
	case "la":
		if len(s.args) != 2 {
			return 0, errLine(s.line, "la needs 2 operands")
		}
		sym, _, err := splitSymRef(s.args[1], s.line)
		if err != nil {
			return 0, err
		}
		if a.symIsSmall(sym) {
			return 1, nil
		}
		return 2, nil
	case "blt", "ble", "bgt", "bge", "bltu", "bleu", "bgtu", "bgeu":
		return 2, nil
	default:
		if op, ok := isa.OpByName(s.name); ok && op.IsMem() {
			// A symbol operand expands to gp-relative (1) or lui+access (2).
			if len(s.args) == 2 && isSymbolOperand(s.args[1]) {
				sym, _, err := splitSymRef(s.args[1], s.line)
				if err != nil {
					return 0, err
				}
				if a.symIsSmall(sym) {
					return 1, nil
				}
				return 2, nil
			}
		}
		return 1, nil
	}
}

// symIsSmall reports whether sym lives in the gp-addressed global region.
func (a *assembler) symIsSmall(sym string) bool {
	s, ok := a.syms[sym]
	return ok && s.Section == prog.SecSData
}

func fitsSigned16(v int32) bool   { return v >= -32768 && v <= 32767 }
func fitsUnsigned16(v int32) bool { return v >= 0 && v <= 0xFFFF }

// isSymbolOperand reports whether a memory operand is a bare symbol
// reference rather than a register-based addressing form or a plain number.
func isSymbolOperand(arg string) bool {
	if arg == "" || strings.Contains(arg, "(") || strings.Contains(arg, "%") {
		return false
	}
	c := arg[0]
	if c == '$' || c == '-' || (c >= '0' && c <= '9') {
		return false
	}
	return true
}

// splitSymRef splits "sym", "sym+4", or "sym-4" into name and addend.
func splitSymRef(arg string, line int) (string, int32, error) {
	i := strings.IndexAny(arg, "+-")
	if i <= 0 {
		if !isIdent(arg) {
			return "", 0, errLine(line, "bad symbol reference %q", arg)
		}
		return arg, 0, nil
	}
	name := arg[:i]
	if !isIdent(name) {
		return "", 0, errLine(line, "bad symbol reference %q", arg)
	}
	v, err := strconv.ParseInt(arg[i:], 0, 32)
	if err != nil {
		return "", 0, errLine(line, "bad symbol addend %q", arg)
	}
	return name, int32(v), nil
}
