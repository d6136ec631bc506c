package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

func mustAssemble(t *testing.T, src string) *prog.Object {
	t.Helper()
	o, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return o
}

func mustLink(t *testing.T, src string, cfg prog.Config) *prog.Program {
	t.Helper()
	p, err := prog.Link(mustAssemble(t, src), cfg)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestBasicInstructions(t *testing.T) {
	src := `
	.text
main:
	addi $t0, $zero, 5
	add  $t1, $t0, $t0
	sw   $t1, 4($sp)
	lw   $t2, 4($sp)
	jr   $ra
`
	o := mustAssemble(t, src)
	if len(o.Text) != 5 {
		t.Fatalf("got %d insts, want 5", len(o.Text))
	}
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: isa.T0, Imm: 5},
		{Op: isa.ADD, Rd: isa.T1, Rs: isa.T0, Rt: isa.T0},
		{Op: isa.SW, Rt: isa.T1, Rs: isa.SP, Imm: 4},
		{Op: isa.LW, Rd: isa.T2, Rs: isa.SP, Imm: 4},
		{Op: isa.JR, Rs: isa.RA},
	}
	for i, w := range want {
		if o.Text[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, o.Text[i], w)
		}
	}
}

func TestAddressingModes(t *testing.T) {
	src := `
main:	lw $t0, ($t1+$t2)
	sw $t0, ($t1+$t2)
	lw $t0, ($t1)+4
	sw $t0, ($t1)+-4
	lfd $f2, 8($sp)
	sfd $f2, ($t1+$t2)
	lb $t0, ($t3+$t4)
	jr $ra
`
	o := mustAssemble(t, src)
	wantOps := []isa.Op{isa.LWX, isa.SWX, isa.LWPI, isa.SWPI, isa.LFD, isa.SFDX, isa.LBX, isa.JR}
	for i, op := range wantOps {
		if o.Text[i].Op != op {
			t.Errorf("inst %d op = %v, want %v", i, o.Text[i].Op, op)
		}
	}
	if o.Text[2].Imm != 4 || o.Text[3].Imm != -4 {
		t.Errorf("post-inc imms = %d, %d", o.Text[2].Imm, o.Text[3].Imm)
	}
	if o.Text[5].Rd != 2 { // SFDX data register in Rd
		t.Errorf("sfdx data reg = %v", o.Text[5].Rd)
	}
}

func TestBranchesAndLabels(t *testing.T) {
	src := `
main:
loop:	addi $t0, $t0, -1
	bne $t0, $zero, loop
	beq $t0, $zero, done
	nop
done:	jr $ra
`
	o := mustAssemble(t, src)
	if o.Text[1].Imm != -8 { // back to loop: (0 - 2)*4
		t.Errorf("bne disp = %d, want -8", o.Text[1].Imm)
	}
	if o.Text[2].Imm != 4 { // forward over nop
		t.Errorf("beq disp = %d, want 4", o.Text[2].Imm)
	}
}

func TestPseudoExpansion(t *testing.T) {
	src := `
main:
	li $t0, 10
	li $t1, 0x12345678
	li $t2, 0xFFFF
	li $t3, 0x70000000
	move $t4, $t0
	not $t5, $t0
	neg $t6, $t0
	blt $t0, $t1, main
	bgeu $t0, $t1, main
	nop
	jr $ra
`
	o := mustAssemble(t, src)
	ops := make([]isa.Op, len(o.Text))
	for i := range o.Text {
		ops[i] = o.Text[i].Op
	}
	want := []isa.Op{
		isa.ADDI,         // li 10
		isa.LUI, isa.ORI, // li 0x12345678
		isa.ORI,          // li 0xFFFF
		isa.LUI,          // li 0x70000000
		isa.ADD,          // move
		isa.NOR,          // not
		isa.SUB,          // neg
		isa.SLT, isa.BNE, // blt
		isa.SLTU, isa.BEQ, // bgeu
		isa.SLL, // nop
		isa.JR,
	}
	if len(ops) != len(want) {
		t.Fatalf("got %d insts %v, want %d", len(ops), ops, len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, ops[i], want[i])
		}
	}
	if o.Text[1].Imm != 0x1234 || o.Text[2].Imm != 0x5678 {
		t.Errorf("li split = %#x, %#x", o.Text[1].Imm, o.Text[2].Imm)
	}
}

func TestGlobalAccessExpansion(t *testing.T) {
	src := `
	.sdata
small:	.word 7
	.data
big:	.space 100
	.text
main:
	lw $t0, small
	lw $t1, big
	la $t2, small
	la $t3, big+4
	sw $t0, small
	jr $ra
`
	o := mustAssemble(t, src)
	// small: 1 inst gp-relative; big: lui $at + lw.
	ops := []isa.Op{}
	for _, in := range o.Text {
		ops = append(ops, in.Op)
	}
	want := []isa.Op{isa.LW, isa.LUI, isa.LW, isa.ADDI, isa.LUI, isa.ADDI, isa.SW, isa.JR}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
	if o.Text[0].Rs != isa.GP {
		t.Errorf("small access base = %v, want $gp", o.Text[0].Rs)
	}
	if o.Text[2].Rs != isa.AT {
		t.Errorf("big access base = %v, want $at", o.Text[2].Rs)
	}
	// Check reloc kinds.
	kinds := map[prog.RelocKind]int{}
	for _, r := range o.Relocs {
		kinds[r.Kind]++
	}
	if kinds[prog.RelGPRel] != 3 || kinds[prog.RelHi16] != 2 || kinds[prog.RelLo16] != 2 {
		t.Errorf("reloc kinds = %v", kinds)
	}
}

func TestDataDirectives(t *testing.T) {
	src := `
	.data
w:	.word 1, 2, -3
h:	.half 0x1234
b:	.byte 1, 2, 3
d:	.double 1.5
s:	.asciiz "hi\n"
sp:	.space 5
	.balign 8
al:	.word 9
	.bss
	.comm buf, 64, 16
	.text
main:	jr $ra
`
	o := mustAssemble(t, src)
	if got := o.Symbols["w"].Off; got != 0 {
		t.Errorf("w off = %d", got)
	}
	if got := o.Symbols["h"].Off; got != 12 {
		t.Errorf("h off = %d", got)
	}
	if got := o.Symbols["b"].Off; got != 14 {
		t.Errorf("b off = %d", got)
	}
	if got := o.Symbols["d"].Off; got != 24 { // aligned to 8
		t.Errorf("d off = %d", got)
	}
	if got := o.Symbols["s"].Off; got != 32 {
		t.Errorf("s off = %d", got)
	}
	if got := o.Symbols["sp"].Off; got != 36 {
		t.Errorf("sp off = %d", got)
	}
	if got := o.Symbols["al"].Off; got != 48 {
		t.Errorf("al off = %d", got)
	}
	if got := o.Symbols["buf"]; got.Section != prog.SecBSS || got.Off != 0 || got.Size != 64 {
		t.Errorf("buf = %+v", got)
	}
	if o.BSSSize != 64 {
		t.Errorf("bss size = %d", o.BSSSize)
	}
	// .word -3 little endian
	if o.Data[8] != 0xFD || o.Data[9] != 0xFF {
		t.Errorf("word -3 bytes = % x", o.Data[8:12])
	}
	if string(o.Data[32:36]) != "hi\n\x00" {
		t.Errorf("asciiz = %q", o.Data[32:36])
	}
}

func TestWordSymbolReloc(t *testing.T) {
	src := `
	.data
tab:	.word target, target+8
	.text
main:	jr $ra
target:	jr $ra
`
	p := mustLink(t, src, prog.DefaultConfig())
	m := p.NewMemory()
	base := p.Symbols["tab"]
	if got := m.Read32(base); got != p.Symbols["target"] {
		t.Errorf("tab[0] = %#x, want %#x", got, p.Symbols["target"])
	}
	if got := m.Read32(base + 4); got != p.Symbols["target"]+8 {
		t.Errorf("tab[1] = %#x", got)
	}
}

func TestLinkLayoutStock(t *testing.T) {
	src := `
	.sdata
g:	.word 1
	.data
d:	.space 100
	.text
main:	jr $ra
`
	p := mustLink(t, src, prog.DefaultConfig())
	if p.Symbols["d"] != 0x10000000 {
		t.Errorf("data base = %#x", p.Symbols["d"])
	}
	// sdata follows data (8-aligned): gp depends on data size.
	if p.GP != 0x10000068 {
		t.Errorf("gp = %#x, want 0x10000068", p.GP)
	}
	if p.Symbols["g"] != p.GP {
		t.Errorf("g = %#x", p.Symbols["g"])
	}
}

func TestLinkLayoutAlignGP(t *testing.T) {
	src := `
	.sdata
g:	.word 1
g2:	.space 300
	.data
d:	.space 100
	.text
main:	jr $ra
`
	cfg := prog.DefaultConfig()
	cfg.AlignGP = true
	p := mustLink(t, src, cfg)
	// Region is 304 bytes -> boundary 512.
	if p.GP%512 != 0 {
		t.Errorf("gp = %#x not 512-aligned", p.GP)
	}
	if p.Symbols["g"] != p.GP || p.Symbols["g2"] != p.GP+4 {
		t.Errorf("sdata symbols misplaced: g=%#x g2=%#x gp=%#x", p.Symbols["g"], p.Symbols["g2"], p.GP)
	}
	// GP-relative offsets must all be positive: check the instruction.
	src2 := `
	.sdata
x:	.space 64
y:	.word 5
	.text
main:	lw $t0, y
	jr $ra
`
	p2 := mustLink(t, src2, cfg)
	if p2.Insts[0].Imm != 64 {
		t.Errorf("gp offset = %d, want 64", p2.Insts[0].Imm)
	}
}

func TestJumpReloc(t *testing.T) {
	src := `
main:	jal helper
	jr $ra
helper:	jr $ra
`
	p := mustLink(t, src, prog.DefaultConfig())
	if got := uint32(p.Insts[0].Imm); got != p.Symbols["helper"] {
		t.Errorf("jal target = %#x, want %#x", got, p.Symbols["helper"])
	}
}

// TestJumpRelocAddend: a jump to sym±N links to the symbol's address
// plus the addend, as la, .word and memory operands do.
func TestJumpRelocAddend(t *testing.T) {
	src := `
main:	j main+4
	jal f-4
	jr $ra
f:	jr $ra
`
	p := mustLink(t, src, prog.DefaultConfig())
	if got, want := uint32(p.Insts[0].Imm), p.Symbols["main"]+4; got != want {
		t.Errorf("j main+4 target = %#x, want %#x", got, want)
	}
	if got, want := uint32(p.Insts[1].Imm), p.Symbols["f"]-4; got != want {
		t.Errorf("jal f-4 target = %#x, want %#x", got, want)
	}
	if _, err := Assemble("main:\n\tj main+x\n"); err == nil {
		t.Error("Assemble accepted j main+x")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"main:\n\tbogus $t0, $t1\n",
		"main:\n\tlw $t0, undefined_symbol\n",
		"main:\n\tadd $t0, $t1\n",            // missing operand
		"main:\n\tlw $t0, 4($nosuch)\n",      // bad register
		"main:\n\tbne $t0, $zero, nowhere\n", // undefined label
		"main:\n\tli $t0\n",
		"main:\n.word 1\n.data\nmain: .word 2\n", // duplicate symbol
		".data\nx: .double oops\n.text\nmain: jr $ra\n",
		".data\nx: .asciiz bad\n.text\nmain: jr $ra\n",
		"main:\n\tlbu $t0, ($t1)+4\n", // unsupported post-inc width
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble succeeded for %q", src)
		}
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	src := strings.Join([]string{
		"# full line comment",
		"main:   addi $t0, $zero, 1   # trailing",
		"        addi $t0, $t0, 2     ; alt comment",
		"lab1: lab2: jr $ra",
	}, "\n")
	o := mustAssemble(t, src)
	if len(o.Text) != 3 {
		t.Fatalf("got %d insts", len(o.Text))
	}
	if o.Symbols["lab1"].Off != 8 || o.Symbols["lab2"].Off != 8 {
		t.Error("stacked labels wrong")
	}
}

// TestHugeDirectivesRejected pins the resource-exhaustion fix found by
// FuzzAsmRoundtrip: size and alignment operands are attacker-controlled
// 32-bit values, and the assembler used to materialize them byte by byte
// (".space 4294967295" allocated 4GB; ".balign 2147483648" spent over a
// minute padding). Oversized requests must be rejected during layout,
// before any image bytes are built.
func TestHugeDirectivesRejected(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"space-4g", ".data\n.space 4294967295\n"},
		{"space-sum", ".data\n.space 200000000\n.space 200000000\n"},
		{"balign-2g", ".data\nx: .word 1\n.balign 2147483648\ny: .word 2\n"},
		{"balign-8k", ".data\n.balign 8192\n"},
		{"comm-4g", ".comm big, 4294967295\n"},
		{"comm-sum", ".comm a, 200000000\n.comm b, 200000000\n"},
		{"comm-align-1m", ".comm big, 16, 1048576\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Fatalf("assembled oversized directive:\n%s", tc.src)
			}
		})
	}

	// Reasonable sizes still assemble, with the image fully materialized.
	o := mustAssemble(t, ".data\nbuf: .space 4096\n.balign 4096\nx: .word 7\n")
	if len(o.Data) != 4096+4 {
		t.Fatalf("data image is %d bytes, want %d", len(o.Data), 4096+4)
	}
	if got := o.Symbols["x"].Off; got != 4096 {
		t.Fatalf("x placed at %d, want 4096", got)
	}
}

// TestRegisterSpellings: a register operand is a conventional name, rN or
// N, and an FP register is fN, where N is decimal digits only with a value
// of 0 to 31. Anything trailing, a sign or another base is rejected, not
// read as the number it starts with.
func TestRegisterSpellings(t *testing.T) {
	o := mustAssemble(t, "main:\n\tadd $t0, $31, $r05\n\tfadd $f31, $f0, $f07\n")
	want := []isa.Inst{
		{Op: isa.ADD, Rd: isa.T0, Rs: isa.RA, Rt: isa.A1},
		{Op: isa.FADD, Rd: 31, Rs: 0, Rt: 7},
	}
	for i, w := range want {
		if o.Text[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, o.Text[i], w)
		}
	}
	for _, src := range []string{
		"add $t0, $0x1f, $t1",
		"lw $t0, 4($29garbage)",
		"add $t0, $r31.5, $t1",
		"add $t0, $5abc, $t1",
		"add $t0, $+5, $t1",
		"add $t0, $32, $t1",
		"add $t0, $r, $t1",
		"add $t0, $, $t1",
		"fadd $f0, $f+2, $f4",
		"fadd $f0, $f-0, $f4",
		"fadd $f0, $f32, $f4",
		"fadd $f0, $f2x, $f4",
	} {
		_, err := Assemble("main:\n\t" + src + "\n")
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("Assemble(%q) = %v, want an unknown-register error", src, err)
		}
	}
}
