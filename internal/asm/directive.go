package asm

import (
	"encoding/binary"
	"math"
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

// directive checks one directive, aligns the section it writes, binds the
// pending labels, and grows the section by the directive's bytes. Only
// initialized bytes are built here; zeros wait for the next datum or the
// end. .comm reserves in .bss whatever the current section.
func (a *assembler) directive(s stmt) error {
	sec, al := s.sec, uint32(1)
	data := false    // .word .half .byte .double .space .ascii .asciiz
	var space uint32 // zero bytes appended or reserved after a.datum
	a.datum = a.datum[:0]
	relocs := len(a.relocs)
	var err error
	switch s.name {
	case ".text", ".data", ".sdata", ".bss", ".globl", ".ent", ".end":
	case ".align":
		var n uint32
		if n, err = parseUint(s.args, 0, s.line); err == nil && n > 12 {
			err = errLine(s.line, ".align %d too large", n)
		}
		al = 1 << n
	case ".balign":
		al, err = parseAlign(s, 0)
	case ".word":
		al, data = 4, true
		for i, arg := range s.args {
			if isSymbolOperand(arg) {
				sym, add, err := splitSymRef(arg, s.line)
				if err != nil {
					return err
				}
				a.relocs = append(a.relocs, prog.Reloc{
					Kind: prog.RelWord32, Sym: sym, Addend: add,
					Section: sec, Off: uint32(4 * i), // from the datum's start
				})
				a.datum = append(a.datum, 0, 0, 0, 0)
				continue
			}
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			a.datum = binary.LittleEndian.AppendUint32(a.datum, uint32(v))
		}
	case ".half":
		al, data = 2, true
		for _, arg := range s.args {
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			a.datum = binary.LittleEndian.AppendUint16(a.datum, uint16(v))
		}
	case ".byte":
		data = true
		for _, arg := range s.args {
			v, err := parseInt32(arg, s.line)
			if err != nil {
				return err
			}
			a.datum = append(a.datum, byte(v))
		}
	case ".double":
		al, data = 8, true
		for _, arg := range s.args {
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return errLine(s.line, "bad double %q", arg)
			}
			a.datum = binary.LittleEndian.AppendUint64(a.datum, math.Float64bits(f))
		}
	case ".ascii", ".asciiz":
		data = true
		if len(s.args) != 1 {
			return errLine(s.line, "%s needs one string", s.name)
		}
		str, err := decodeString(s.args[0], s.line)
		if err != nil {
			return err
		}
		a.datum = append(a.datum, str...)
		if s.name == ".asciiz" {
			a.datum = append(a.datum, 0)
		}
	case ".space":
		data = true
		space, err = parseUint(s.args, 0, s.line)
	case ".comm":
		sec, al = prog.SecBSS, 4
		if space, err = parseUint(s.args, 1, s.line); err == nil && len(s.args) >= 3 {
			al, err = parseAlign(s, 2)
		}
	default:
		return errLine(s.line, "unknown directive %s", s.name)
	}
	switch {
	case err != nil:
		return err
	case sec == prog.SecText && data:
		return errLine(s.line, "%s in .text, which holds only instructions", s.name)
	case sec == prog.SecText && al > isa.InstBytes:
		return errLine(s.line, "%s in .text aligns past %d bytes", s.name, isa.InstBytes)
	case sec == prog.SecBSS && data && s.name != ".space":
		return errLine(s.line, "%s in .bss, which holds no initialized data", s.name)
	}
	start := alignUp(a.offset(sec), al)
	if uint64(start)+uint64(len(a.datum))+uint64(space) > maxSectionBytes {
		return errLine(s.line, "%v grows past %d bytes", sec, maxSectionBytes)
	}
	a.size[sec] = start
	a.bindPending()
	if s.name == ".comm" {
		sym := a.syms[s.args[0]]
		sym.Off, sym.Size = start, space
		a.syms[s.args[0]] = sym
	}
	for i := relocs; i < len(a.relocs); i++ {
		a.relocs[i].Off += start
	}
	if len(a.datum) > 0 {
		a.images[sec] = append(zeroFill(a.images[sec], start), a.datum...)
	}
	a.size[sec] += uint32(len(a.datum)) + space
	return nil
}

// offset is a section's next free offset: the text's length in bytes, or
// a data section's size.
func (a *assembler) offset(sec prog.SectionKind) uint32 {
	if sec == prog.SecText {
		return uint32(len(a.text)) * isa.InstBytes
	}
	return a.size[sec]
}

// zeroFill extends img with zero bytes to n bytes.
func zeroFill(img []byte, n uint32) []byte {
	return append(img, make([]byte, n-uint32(len(img)))...)
}

// bindPending binds each pending label at its section's offset.
func (a *assembler) bindPending() {
	for _, name := range a.pending {
		sym := a.syms[name]
		sym.Off = a.offset(sym.Section)
		a.syms[name] = sym
	}
	a.pending = a.pending[:0]
}

func alignUp(v, a uint32) uint32 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// parseAlign parses a byte alignment operand of .balign or .comm: a power
// of two no larger than maxBalign.
func parseAlign(s stmt, i int) (uint32, error) {
	n, err := parseUint(s.args, i, s.line)
	switch {
	case err != nil:
		return 0, err
	case n == 0 || n&(n-1) != 0:
		return 0, errLine(s.line, "%s alignment %d not a power of two", s.name, n)
	case n > maxBalign:
		return 0, errLine(s.line, "%s alignment %d too large", s.name, n)
	}
	return n, nil
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
