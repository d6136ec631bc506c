package asm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

var updateOps = flag.Bool("update", false, "rewrite testdata/ops.golden")

// opsGoldenPCs are the two addresses every pattern is encoded at: the
// start of text, and the last word of a 256MB region, whose successor
// starts the next region (jump targets are region-relative).
var opsGoldenPCs = [2]uint32{0x00400000, 0x0ffffffc}

// opsGoldenPatterns fill every Inst field, used or not, so the golden
// shows which fields each op reads, writes, encodes and prints. The
// immediates sit on and just past each immediate kind's bounds.
var opsGoldenPatterns = []isa.Inst{
	{Rd: 1, Rs: 2, Rt: 3, Imm: 4},
	{Rd: 0, Rs: 0, Rt: 0, Imm: 0},
	{Rd: 31, Rs: 29, Rt: 28, Imm: -8},
	{Rd: 7, Rs: 7, Rt: 7, Imm: 31},
	{Rd: 0, Rs: 5, Rt: 6, Imm: 32},
	{Rd: 9, Rs: 0, Rt: 10, Imm: -1},
	{Rd: 11, Rs: 12, Rt: 0, Imm: 0xFFFF},
	{Rd: 14, Rs: 15, Rt: 16, Imm: 0x10000},
	{Rd: 17, Rs: 18, Rt: 19, Imm: 32767},
	{Rd: 20, Rs: 21, Rt: 22, Imm: -32768},
	{Rd: 23, Rs: 24, Rt: 25, Imm: 40000},
	{Rd: 26, Rs: 27, Rt: 30, Imm: -131072},
	{Rd: 8, Rs: 9, Rt: 10, Imm: 131068},
	{Rd: 12, Rs: 13, Rt: 14, Imm: 131072},
	{Rd: 2, Rs: 4, Rt: 6, Imm: 0x00400010},
	{Rd: 3, Rs: 5, Rt: 7, Imm: 0x10000000},
	{Rd: 4, Rs: 8, Rt: 12, Imm: 0x0ffffffe},
}

// TestOpsGolden pins everything the ISA layer reports about every op:
// its predicates, and for each field pattern its Uses, Defs, Predecode
// form, store-data register, binary encoding at two PCs and the decoding
// of that word, its disassembly, and what the assembler makes of the
// disassembly. It also pins Decode's verdict on each major opcode and
// each R-form funct, and the addressing-mode variant the assembler picks
// for each memory mnemonic and operand form. After an intended ISA change,
// regenerate with: go test ./internal/asm -run TestOpsGolden -update
func TestOpsGolden(t *testing.T) {
	got := opsGolden()
	path := filepath.Join("testdata", "ops.golden")
	if *updateOps {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(wantBytes), "\n")
	diffs := 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		if diffs++; diffs <= 10 {
			t.Errorf("ops.golden line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	if diffs > 10 {
		t.Errorf("... %d differing lines in all", diffs)
	}
}

func opsGolden() string {
	var b strings.Builder
	b.WriteString("# Per-op ISA golden; see TestOpsGolden. Inst notation: op/rd/rs/rt/imm.\n")
	b.WriteString("# Op line: class mode size, then flags load store mem branch jump control fpdest fpsrc.\n")
	b.WriteString("# Pattern line: uses defs pre [sd=store data] | word@pc0 decode | word@pc1 decode | String => Assemble.\n")
	for op := isa.Op(1); op < isa.NumOps; op++ {
		flags := []bool{op.IsLoad(), op.IsStore(), op.IsMem(), op.IsBranch(), op.IsJump(), op.IsControl(), op.FPDest(), op.FPSrc()}
		fmt.Fprintf(&b, "op %s class=%d mode=%d size=%d flags=", op, op.Class(), op.Mode(), op.MemSize())
		for _, f := range flags {
			b.WriteByte("01"[boolInt(f)])
		}
		b.WriteByte('\n')
		for i, p := range opsGoldenPatterns {
			in := p
			in.Op = op
			fmt.Fprintf(&b, "  p%02d %s uses=%v defs=%v pre=%v", i, goldenInst(in), in.Uses(nil), in.Defs(nil), isa.Predecode(in))
			if op.IsStore() {
				fmt.Fprintf(&b, " sd=%v", in.StoreDataReg())
			}
			for _, pc := range opsGoldenPCs {
				b.WriteString(" | ")
				word, err := isa.Encode(in, pc)
				if err != nil {
					b.WriteString(err.Error())
					continue
				}
				fmt.Fprintf(&b, "%08x ", word)
				b.WriteString(goldenDecode(word, pc))
			}
			text := in.String()
			fmt.Fprintf(&b, " | %s => %s\n", text, goldenAssemble("main:\n\t"+text+"\n"))
		}
	}
	const fill = 0x03FFFFFF & 0x01234567 // nonzero rs, rt, rd, sa and low bits
	for opc := uint32(0); opc < 64; opc++ {
		word := opc<<26 | fill
		fmt.Fprintf(&b, "opcode %2d %08x %s\n", opc, word, goldenDecode(word, opsGoldenPCs[0]))
	}
	for funct := uint32(0); funct < 64; funct++ {
		word := fill&^63 | funct
		fmt.Fprintf(&b, "funct %2d %08x %s\n", funct, word, goldenDecode(word, opsGoldenPCs[0]))
	}
	forms := []string{"4($t1)", "($t1+$t2)", "($t1)+4", "($t1)+-4", "sml", "big+8"}
	for op := isa.Op(1); op < isa.NumOps; op++ {
		if !op.IsMem() {
			continue
		}
		data := "$t0"
		if op.FPDest() || op.FPSrc() {
			data = "$f2"
		}
		for _, form := range forms {
			src := ".sdata\nsml: .word 0\n.data\nbig: .word 0, 0, 0\n.text\nmain:\n\t" + op.String() + " " + data + ", " + form + "\n"
			fmt.Fprintf(&b, "mode %s %s, %s => %s\n", op, data, form, goldenAssemble(src))
		}
	}
	return b.String()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func goldenInst(in isa.Inst) string {
	return fmt.Sprintf("%s/%d/%d/%d/%d", in.Op, in.Rd, in.Rs, in.Rt, in.Imm)
}

func goldenDecode(word, pc uint32) string {
	in, err := isa.Decode(word, pc)
	if err != nil {
		return err.Error()
	}
	return goldenInst(in)
}

// goldenAssemble reports the instructions and relocations src assembles
// to, or the assembler's error.
func goldenAssemble(src string) string {
	o, err := Assemble(src)
	if err != nil {
		return err.Error()
	}
	var parts []string
	for i, in := range o.Text {
		s := goldenInst(in)
		for _, r := range o.Relocs {
			if r.Kind != prog.RelWord32 && r.InstIndex == i {
				s += fmt.Sprintf("[reloc %d %s%+d]", r.Kind, r.Sym, r.Addend)
			}
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}
