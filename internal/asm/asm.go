// Package asm implements a two-pass assembler for the extended MIPS-like
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

type assembler struct {
	stmts []stmt
	syms  map[string]prog.Symbol
	// text emission
	text     []isa.Inst
	srcLines []int
	relocs   []prog.Reloc
	// data emission
	images [prog.NumSections][]byte
	bss    uint32
	// label -> text instruction index
	textLabels map[string]int
}

// Assemble translates source into a relocatable object.
func Assemble(src string) (*prog.Object, error) {
	a := &assembler{
		syms:       make(map[string]prog.Symbol),
		textLabels: make(map[string]int),
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := a.emit(); err != nil {
		return nil, err
	}
	return &prog.Object{
		Text:     a.text,
		SData:    a.images[prog.SecSData],
		Data:     a.images[prog.SecData],
		BSSSize:  a.bss,
		Symbols:  a.syms,
		Relocs:   a.relocs,
		SrcLines: a.srcLines,
	}, nil
}

func errLine(line int, format string, args ...interface{}) error {
	return fmt.Errorf("asm: line %d: %s", line, fmt.Sprintf(format, args...))
}

// parse splits the source into statements and records the section each
// statement lives in.
func (a *assembler) parse(src string) error {
	sec := prog.SecText
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
			a.stmts = append(a.stmts, stmt{kind: stLabel, line: lineNo + 1, name: head, sec: sec})
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
			a.stmts = append(a.stmts, stmt{kind: stDirective, line: lineNo + 1, name: name, args: splitArgs(rest), sec: sec})
			continue
		}
		a.stmts = append(a.stmts, stmt{kind: stInst, line: lineNo + 1, name: strings.ToLower(name), args: splitArgs(rest), sec: sec})
	}
	// First symbol sweep: record the defining section of every label and
	// every .comm, so pseudo-expansion sizes are known before layout.
	for _, s := range a.stmts {
		switch s.kind {
		case stLabel:
			if _, dup := a.syms[s.name]; dup {
				return errLine(s.line, "duplicate symbol %q", s.name)
			}
			a.syms[s.name] = prog.Symbol{Name: s.name, Section: s.sec}
		case stDirective:
			if s.name == ".comm" {
				if len(s.args) < 2 {
					return errLine(s.line, ".comm needs name, size")
				}
				name := s.args[0]
				if _, dup := a.syms[name]; dup {
					return errLine(s.line, "duplicate symbol %q", name)
				}
				a.syms[name] = prog.Symbol{Name: name, Section: prog.SecBSS}
			}
		}
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
