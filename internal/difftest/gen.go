package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
)

// RandomTrace generates a well-formed dynamic instruction stream of n
// instructions: PCs chain through taken branches and jumps, memory
// operands satisfy EffAddr == Base+Offset under every addressing mode
// (constant, register+register, and post-increment), and base/index
// values mix the patterns that drive every predictor outcome — aligned
// and unaligned bases, small and block-crossing offsets, negative index
// registers. Every trace carries its pre-decode, as the emulator's do.
// It replaces the pipeline package's earlier ad-hoc generator, which
// never produced taken branches, post-increment, or reg+reg traffic.
func RandomTrace(r *rand.Rand, n int) []emu.Trace {
	g := &traceGen{r: r, pc: 0x00400000}
	for i := range g.reg {
		g.reg[i] = g.value()
	}
	g.reg[isa.Zero] = 0
	for len(g.trs) < n {
		g.step()
	}
	trs := g.trs[:n]
	pre := make([]isa.Pre, n)
	for i := range trs {
		pre[i] = isa.Predecode(trs[i].Inst)
		trs[i].Pre = &pre[i]
	}
	return trs
}

type traceGen struct {
	r   *rand.Rand
	pc  uint32
	reg [isa.NumRegs]uint32
	trs []emu.Trace
}

// value picks register contents from the populations that matter to the
// predictor: data- and stack-segment pointers, small integers, values
// hugging a block boundary, and sign-bit-set values (negative index
// registers).
func (g *traceGen) value() uint32 {
	switch g.r.Intn(6) {
	case 0:
		return 0x10000000 + uint32(g.r.Intn(1<<13))
	case 1:
		return 0x7FFF0000 - uint32(g.r.Intn(1<<12))
	case 2:
		return uint32(g.r.Intn(256))
	case 3:
		return uint32(g.r.Uint64())
	case 4:
		return (uint32(g.r.Uint64()) &^ 31) | uint32(g.r.Intn(8)+24) // near block end
	default:
		return 0x80000000 | uint32(g.r.Uint64())>>1&0xFFFF // negative, moderate magnitude
	}
}

// gpr picks a general working register ($t0-$t7, $s0-$s7).
func (g *traceGen) gpr() isa.Reg { return isa.Reg(8 + g.r.Intn(16)) }

// fpr picks an FP working register.
func (g *traceGen) fpr() isa.Reg { return isa.Reg(g.r.Intn(16)) }

func (g *traceGen) emit(tr emu.Trace) {
	g.trs = append(g.trs, tr)
	g.pc = tr.NextPC
}

func (g *traceGen) flat(in isa.Inst) {
	g.emit(emu.Trace{PC: g.pc, Inst: in, NextPC: g.pc + isa.InstBytes})
}

func (g *traceGen) step() {
	r := g.r
	switch p := r.Intn(100); {
	case p < 25: // single-cycle integer ALU
		rd, rs, rt := g.gpr(), g.gpr(), g.gpr()
		switch r.Intn(4) {
		case 0:
			g.flat(isa.Inst{Op: isa.ADD, Rd: rd, Rs: rs, Rt: rt})
			g.reg[rd] = g.reg[rs] + g.reg[rt]
		case 1:
			imm := int32(int16(r.Uint32()))
			g.flat(isa.Inst{Op: isa.ADDI, Rd: rd, Rs: rs, Imm: imm})
			g.reg[rd] = g.reg[rs] + uint32(imm)
		case 2:
			g.flat(isa.Inst{Op: isa.XOR, Rd: rd, Rs: rs, Rt: rt})
			g.reg[rd] = g.reg[rs] ^ g.reg[rt]
		case 3:
			g.flat(isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(r.Intn(0x10000))})
			g.reg[rd] = uint32(r.Intn(0x10000)) << 16
		}
	case p < 31: // long-latency integer
		rd, rs, rt := g.gpr(), g.gpr(), g.gpr()
		op := isa.MUL
		if r.Intn(3) == 0 {
			op = isa.DIV
		}
		g.flat(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
		g.reg[rd] = g.value()
	case p < 40: // FP arithmetic
		ops := []isa.Op{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV}
		g.flat(isa.Inst{Op: ops[r.Intn(len(ops))], Rd: g.fpr(), Rs: g.fpr(), Rt: g.fpr()})
	case p < 72: // memory traffic, all addressing modes
		g.memStep()
	case p < 90: // conditional branches, ~half taken
		g.branchStep()
	default: // jumps
		g.jumpStep()
	}
}

func (g *traceGen) memStep() {
	r := g.r
	rs := g.gpr()
	base := g.reg[rs]
	tr := emu.Trace{PC: g.pc, NextPC: g.pc + isa.InstBytes, Base: base}
	switch r.Intn(8) {
	case 0, 1: // constant-offset load
		ops := []isa.Op{isa.LW, isa.LB, isa.LBU, isa.LH, isa.LHU}
		op := ops[r.Intn(len(ops))]
		imm := g.constOffset()
		tr.Inst = isa.Inst{Op: op, Rd: g.gpr(), Rs: rs, Imm: imm}
		tr.Offset = uint32(imm)
		g.reg[tr.Inst.Rd] = g.value()
	case 2: // constant-offset store
		ops := []isa.Op{isa.SW, isa.SB, isa.SH}
		op := ops[r.Intn(len(ops))]
		imm := g.constOffset()
		tr.Inst = isa.Inst{Op: op, Rt: g.gpr(), Rs: rs, Imm: imm}
		tr.Offset = uint32(imm)
	case 3: // register+register load
		rt := g.gpr()
		tr.Inst = isa.Inst{Op: isa.LWX, Rd: g.gpr(), Rs: rs, Rt: rt}
		tr.Offset, tr.IsRegOffset = g.reg[rt], true
		g.reg[tr.Inst.Rd] = g.value()
	case 4: // register+register store
		rt := g.gpr()
		tr.Inst = isa.Inst{Op: isa.SWX, Rd: g.gpr(), Rs: rs, Rt: rt}
		tr.Offset, tr.IsRegOffset = g.reg[rt], true
	case 5: // post-increment/decrement load; access uses the base directly
		inc := int32((r.Intn(8) - 4) * 4)
		tr.Inst = isa.Inst{Op: isa.LWPI, Rd: g.gpr(), Rs: rs, Imm: inc}
		g.reg[rs] = base + uint32(inc)
		g.reg[tr.Inst.Rd] = g.value()
	case 6: // post-increment/decrement store
		inc := int32((r.Intn(8) - 4) * 8)
		tr.Inst = isa.Inst{Op: isa.SWPI, Rt: g.gpr(), Rs: rs, Imm: inc}
		g.reg[rs] = base + uint32(inc)
	case 7: // FP loads and stores
		switch r.Intn(3) {
		case 0:
			imm := g.constOffset()
			tr.Inst = isa.Inst{Op: isa.LFD, Rd: g.fpr(), Rs: rs, Imm: imm}
			tr.Offset = uint32(imm)
		case 1:
			imm := g.constOffset()
			tr.Inst = isa.Inst{Op: isa.SFD, Rt: g.fpr(), Rs: rs, Imm: imm}
			tr.Offset = uint32(imm)
		default:
			rt := g.gpr()
			tr.Inst = isa.Inst{Op: isa.LFDX, Rd: g.fpr(), Rs: rs, Rt: rt}
			tr.Offset, tr.IsRegOffset = g.reg[rt], true
		}
	}
	tr.EffAddr = tr.Base + tr.Offset
	if tr.Inst.Op.Mode() == isa.AMPost {
		tr.EffAddr = tr.Base // access precedes the increment
	}
	g.emit(tr)
}

// constOffset mixes the small frame/global offsets real code produces with
// boundary-crossing and large-magnitude ones.
func (g *traceGen) constOffset() int32 {
	switch g.r.Intn(4) {
	case 0:
		return int32(g.r.Intn(64) * 4)
	case 1:
		return int32(g.r.Intn(1024) - 512)
	case 2:
		return int32(int16(g.r.Uint32())) // full immediate range
	default:
		return int32(-(g.r.Intn(64) * 4))
	}
}

func (g *traceGen) branchStep() {
	r := g.r
	ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ}
	op := ops[r.Intn(len(ops))]
	in := isa.Inst{Op: op, Rs: g.gpr()}
	if op == isa.BEQ || op == isa.BNE {
		in.Rt = g.gpr()
	}
	tr := emu.Trace{PC: g.pc, NextPC: g.pc + isa.InstBytes}
	if r.Intn(2) == 0 {
		// Taken: forward or backward displacement, never zero.
		d := int32((r.Intn(32) - 15) * 4)
		if d == 0 {
			d = 64
		}
		in.Imm = d
		tr.Taken = true
		tr.NextPC = g.pc + isa.InstBytes + uint32(d)
	} else {
		in.Imm = int32((r.Intn(64) + 1) * 4)
	}
	tr.Inst = in
	g.emit(tr)
}

func (g *traceGen) jumpStep() {
	r := g.r
	tr := emu.Trace{PC: g.pc}
	switch r.Intn(3) {
	case 0:
		target := (g.pc+isa.InstBytes)&0xF0000000 | uint32(r.Intn(1<<16))<<2
		tr.Inst = isa.Inst{Op: isa.J, Imm: int32(target)}
		tr.NextPC = target
	case 1:
		target := (g.pc+isa.InstBytes)&0xF0000000 | uint32(r.Intn(1<<16))<<2
		tr.Inst = isa.Inst{Op: isa.JAL, Imm: int32(target)}
		tr.NextPC = target
		g.reg[isa.RA] = g.pc + isa.InstBytes
	default:
		rs := g.gpr()
		tr.Inst = isa.Inst{Op: isa.JR, Rs: rs}
		tr.NextPC = g.reg[rs] &^ 3
	}
	tr.Taken = true
	g.emit(tr)
}

// RandomMiniC generates a small, always-terminating MiniC program: global
// array traffic, nested counted loops, branches, and integer arithmetic
// with guarded division. The programs are semantically unconstrained —
// the differential oracle compares the emulator against itself under
// timing replay, not against a shadow evaluation.
func RandomMiniC(r *rand.Rand) string {
	g := &minicGen{r: r}
	var b strings.Builder
	b.WriteString("int g[32];\n\nint main() {\n")
	b.WriteString("\tint a; int b; int c; int s; int i; int j;\n")
	fmt.Fprintf(&b, "\ta = %d; b = %d; c = %d; s = 0; j = 0;\n", r.Intn(201)-100, r.Intn(201)-100, r.Intn(65536)-32768)
	fmt.Fprintf(&b, "\tfor (i = 0; i < 32; i++) { g[i] = i * %d + %d; }\n", r.Intn(9)-4, r.Intn(101)-50)
	for n := 3 + r.Intn(6); n > 0; n-- {
		g.stmt(&b, 1, "i")
	}
	b.WriteString("\ts = 0;\n\tfor (i = 0; i < 32; i++) { s = s * 31 + g[i]; }\n")
	b.WriteString("\tprint_int(s); print_char(10);\n")
	b.WriteString("\tprint_int(a ^ b ^ c); print_char(10);\n")
	b.WriteString("\treturn (s ^ a) & 255;\n}\n")
	return b.String()
}

type minicGen struct {
	r *rand.Rand
}

var minicVars = []string{"a", "b", "c", "s"}

func (g *minicGen) stmt(b *strings.Builder, depth int, loopVar string) {
	r := g.r
	ind := strings.Repeat("\t", depth)
	switch p := r.Intn(10); {
	case p < 4 || depth >= 3:
		lhs := minicVars[r.Intn(len(minicVars))]
		ops := []string{"=", "+=", "-=", "*=", "^=", "|=", "&="}
		fmt.Fprintf(b, "%s%s %s %s;\n", ind, lhs, ops[r.Intn(len(ops))], g.expr(0, loopVar))
	case p < 6:
		fmt.Fprintf(b, "%sg[%s & 31] = %s;\n", ind, g.expr(1, loopVar), g.expr(0, loopVar))
	case p < 8:
		fmt.Fprintf(b, "%sif (%s) {\n", ind, g.expr(0, loopVar))
		g.stmt(b, depth+1, loopVar)
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "%s} else {\n", ind)
			g.stmt(b, depth+1, loopVar)
		}
		fmt.Fprintf(b, "%s}\n", ind)
	case p < 9 && loopVar == "i":
		// One nesting level: loops at this level iterate i; their bodies
		// get j as the free variable and may not open another loop on i.
		fmt.Fprintf(b, "%sfor (i = 0; i < %d; i++) {\n", ind, 2+r.Intn(24))
		g.stmt(b, depth+1, "j")
		fmt.Fprintf(b, "%s}\n", ind)
	default:
		fmt.Fprintf(b, "%sdo {\n", ind)
		g.stmt(b, depth+1, loopVar)
		fmt.Fprintf(b, "%s} while (0);\n", ind)
	}
}

func (g *minicGen) expr(depth int, loopVar string) string {
	r := g.r
	if depth >= 2 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return minicVars[r.Intn(len(minicVars))]
		case 1:
			consts := []int{0, 1, -1, 2, 31, 255, 32767, -32768, 65535, -4096}
			return fmt.Sprint(consts[r.Intn(len(consts))])
		case 2:
			// Index with a simple leaf: deep subscripts exhaust the
			// compiler's (documented) temporary budget.
			if r.Intn(2) == 0 {
				return fmt.Sprintf("g[%s & 31]", loopVar)
			}
			return fmt.Sprintf("g[%s & 31]", minicVars[r.Intn(len(minicVars))])
		default:
			return loopVar
		}
	}
	l, rhs := g.expr(depth+1, loopVar), g.expr(depth+1, loopVar)
	switch r.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, rhs)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, rhs)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, rhs)
	case 3:
		return fmt.Sprintf("(%s / (%s | 1))", l, rhs) // |1 keeps the divisor nonzero
	case 4:
		return fmt.Sprintf("(%s %% (%s | 1))", l, rhs)
	case 5:
		return fmt.Sprintf("(%s & %s)", l, rhs)
	case 6:
		return fmt.Sprintf("(%s | %s)", l, rhs)
	case 7:
		return fmt.Sprintf("(%s ^ %s)", l, rhs)
	case 8:
		return fmt.Sprintf("(%s << %d)", l, r.Intn(8))
	case 9:
		return fmt.Sprintf("(%s >> %d)", l, r.Intn(8))
	case 10:
		return fmt.Sprintf("(%s < %s)", l, rhs)
	default:
		return fmt.Sprintf("(%s == %s ? %s : %s)", l, rhs, g.expr(depth+1, loopVar), g.expr(depth+1, loopVar))
	}
}
