// Package asm implements a one-pass assembler for the extended MIPS-like
// ISA. It accepts a single translation unit (the compiler emits the whole
// program, runtime included, as one unit) and produces a relocatable
// prog.Object.
//
// Supported directives: .text .data .sdata .bss .globl .align (power of
// two) .balign (bytes) .word .half .byte .double .space .ascii .asciiz
// .comm. Labels end with ':'. Comments start with '#' or ';'.
//
// Real instructions take the operands isa.Op.Syntax lists. A load or
// store mnemonic names its register+constant form; the memory operand's
// spelling selects the register+register or post-increment variant.
// Pseudo-instructions: li, la, move, nop, b, beqz, bnez, not, neg,
// one-operand jalr (linking through $ra), blt/ble/bgt/bge (+u variants),
// and symbol-operand loads/stores (e.g. "lw $t0, counter"), which expand
// to a single $gp-relative access for small-data symbols or a lui/$at pair
// otherwise — exactly the code shapes whose address-prediction behaviour
// the paper studies.
//
// Parsing records each symbol's section, which is all an expansion needs
// to know, so one pass then emits every statement in order: a label binds
// at its section's offset before the next statement (after that
// statement's alignment, if it is a directive), and a branch to a label
// leaves a fixup that is patched once every label is bound.
package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

type stmtKind uint8

const (
	stLabel stmtKind = iota
	stDirective
	stInst
)

type stmt struct {
	kind stmtKind
	line int
	name string   // label name, directive name, or mnemonic
	args []string // raw operand strings
	sec  prog.SectionKind
}

// fixup is a branch whose displacement waits for its label's offset.
type fixup struct {
	inst  int // index of the branch in text
	label string
	line  int
}

type assembler struct {
	stmts []stmt
	syms  map[string]prog.Symbol
	// text emission
	text     []isa.Inst
	srcLines []int
	relocs   []prog.Reloc
	fixups   []fixup
	// data emission: a data section's offset is its size. Its image holds
	// the bytes up to its last initialized datum and is zero-filled to the
	// size at the end, so .space and .bss reserve without building bytes.
	images [prog.NumSections][]byte
	size   [prog.NumSections]uint32
	// labels not yet bound, and the bytes of the directive being emitted
	pending []string
	datum   []byte
}

// Assemble translates source into a relocatable object.
func Assemble(src string) (*prog.Object, error) {
	a := &assembler{syms: make(map[string]prog.Symbol)}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	for _, s := range a.stmts {
		var err error
		switch s.kind {
		case stLabel:
			a.pending = append(a.pending, s.name)
		case stDirective:
			err = a.directive(s)
		case stInst:
			a.bindPending()
			if err = a.emitInst(s); err == nil && len(a.text) > maxSectionBytes/4 {
				err = errLine(s.line, "text grows past %d instructions", maxSectionBytes/4)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	a.bindPending()
	for _, f := range a.fixups {
		sym, ok := a.syms[f.label]
		if !ok || sym.Section != prog.SecText {
			return nil, errLine(f.line, "undefined label %q", f.label)
		}
		a.text[f.inst].Imm = int32(sym.Off) - int32(f.inst+1)*4
	}
	return &prog.Object{
		Text:     a.text,
		SData:    zeroFill(a.images[prog.SecSData], a.size[prog.SecSData]),
		Data:     zeroFill(a.images[prog.SecData], a.size[prog.SecData]),
		BSSSize:  a.size[prog.SecBSS],
		Symbols:  a.syms,
		Relocs:   a.relocs,
		SrcLines: a.srcLines,
	}, nil
}

func errLine(line int, format string, args ...interface{}) error {
	return fmt.Errorf("asm: line %d: %s", line, fmt.Sprintf(format, args...))
}

// parse splits the source into statements, records the section each
// statement lives in, and records the section of every label and every
// .comm symbol, so each expansion is known when it is emitted.
func (a *assembler) parse(src string) error {
	sec := prog.SecText
	define := func(name string, sec prog.SectionKind, line int) error {
		if _, dup := a.syms[name]; dup {
			return errLine(line, "duplicate symbol %q", name)
		}
		a.syms[name] = prog.Symbol{Name: name, Section: sec}
		return nil
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		for {
			// Peel leading labels.
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			head := strings.TrimSpace(line[:i])
			if !isIdent(head) {
				break
			}
			if err := define(head, sec, lineNo+1); err != nil {
				return err
			}
			a.stmts = append(a.stmts, stmt{kind: stLabel, line: lineNo + 1, name: head})
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		name, rest := splitWord(line)
		if strings.HasPrefix(name, ".") {
			switch name {
			case ".text":
				sec = prog.SecText
			case ".data":
				sec = prog.SecData
			case ".sdata":
				sec = prog.SecSData
			case ".bss":
				sec = prog.SecBSS
			}
			s := stmt{kind: stDirective, line: lineNo + 1, name: name, args: splitArgs(rest), sec: sec}
			if name == ".comm" {
				if len(s.args) < 2 {
					return errLine(s.line, ".comm needs name, size")
				}
				if err := define(s.args[0], prog.SecBSS, s.line); err != nil {
					return err
				}
			}
			a.stmts = append(a.stmts, s)
			continue
		}
		a.stmts = append(a.stmts, stmt{kind: stInst, line: lineNo + 1, name: strings.ToLower(name), args: splitArgs(rest), sec: sec})
	}
	return nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			if i == 0 || line[i-1] != '\\' {
				inStr = !inStr
			}
		case '#', ';':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func splitWord(s string) (string, string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], strings.TrimSpace(s[i+1:])
		}
	}
	return s, ""
}

// splitArgs splits an operand list on commas, respecting parentheses and
// quoted strings.
func splitArgs(s string) []string {
	var args []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inStr = !inStr
			}
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" {
		args = append(args, tail)
	}
	return args
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '$', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
