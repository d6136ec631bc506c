package staticfac

import (
	"math"

	"repro/internal/isa"
)

// Branch narrowing: a conditional branch proves a fact about the tested
// registers on each outgoing edge, and the interval domain can represent
// many of those facts (sign tests directly; equality tests by meeting;
// magnitude tests through the slt/sltu comparison that feeds them). This
// is what bounds loop induction variables — the assembler expands every
// blt/ble/bgt/bge pseudo-branch into an slt + beq/bne $zero pair, so a
// loop guard like `i < n` becomes a comparison result tested against
// zero, and the array walk below the guard sees an index interval capped
// at the loop limit.
//
// Narrowed bounds also propagate backward through affine def chains
// inside the block (addi results and register moves): a guard that tests
// i+k bounds the temporary holding i+k, and the back-propagation carries
// the bound onto i itself, which is the register the loop body actually
// indexes with.

// refineEdges computes the taken and fallthrough states of a block ending
// in a conditional branch, and per edge whether it is feasible at all: an
// empty meet means the abstract state proves the branch cannot go that
// way, so the dataflow never propagates the edge. Pruning is what breaks
// the bootstrap circularity of the memory domain — a loop guarded by
// `i < n` with n initially 0 in the data image must not execute its body
// in the first memory round, or the body's unbounded stores would poison
// the very cell that bounds i. The pruning leans on narrowing being
// exact; the difftest reachability clause ("every executed site is
// statically reachable") attacks it dynamically on every run.
func (az *analyzer) refineEdges(b *block, st State) (taken, fall State, takenOK, fallOK bool) {
	taken, fall = st, st
	var deadTaken, deadFall bool
	nrT := edgeNarrower{az: az, b: b, dead: &deadTaken}
	nrF := edgeNarrower{az: az, b: b, dead: &deadFall}
	in := az.p.Insts[b.last]
	switch in.Op {
	case isa.BGEZ:
		nrT.meetSigned(&taken, in.Rs, 0, math.MaxInt32)
		nrF.meetSigned(&fall, in.Rs, math.MinInt32, -1)
	case isa.BLTZ:
		nrT.meetSigned(&taken, in.Rs, math.MinInt32, -1)
		nrF.meetSigned(&fall, in.Rs, 0, math.MaxInt32)
	case isa.BGTZ:
		nrT.meetSigned(&taken, in.Rs, 1, math.MaxInt32)
		nrF.meetSigned(&fall, in.Rs, math.MinInt32, 0)
	case isa.BLEZ:
		nrT.meetSigned(&taken, in.Rs, math.MinInt32, 0)
		nrF.meetSigned(&fall, in.Rs, 1, math.MaxInt32)
	case isa.BEQ, isa.BNE:
		eq, ne := &taken, &fall
		nrEq, nrNe := nrT, nrF
		if in.Op == isa.BNE {
			eq, ne = &fall, &taken
			nrEq, nrNe = nrF, nrT
		}
		nrEq.narrowEqual(eq, in.Rs, in.Rt)
		nrNe.narrowNotEqual(ne, in.Rs, in.Rt)
		var cond isa.Reg
		switch {
		case in.Rt == isa.Zero && in.Rs != isa.Zero:
			cond = in.Rs
		case in.Rs == isa.Zero && in.Rt != isa.Zero:
			cond = in.Rt
		default:
			return taken, fall, !deadTaken, !deadFall
		}
		if cmp, ok := az.comparisonAt(b, cond); ok {
			// slt-family results are exactly 0 or 1: the comparison holds
			// on the cond != 0 edge and its negation holds on cond == 0.
			nrNe.narrowCompare(ne, cmp, true)
			nrEq.narrowCompare(eq, cmp, false)
		}
	}
	return taken, fall, !deadTaken, !deadFall
}

// edgeNarrower applies branch facts to a state, with access to the block
// so refined bounds can chase def chains backward. An empty meet sets
// dead: the edge the facts came from is infeasible.
type edgeNarrower struct {
	az   *analyzer
	b    *block
	dead *bool
}

// backpropDepth caps the affine def chains backprop follows; minic's
// compare-then-move chains are two or three deep.
const backpropDepth = 8

// meetIv narrows r to the meet of its interval with iv and back-propagates.
func (n edgeNarrower) meetIv(st *State, r isa.Reg, iv Interval, depth int) {
	if r == isa.Zero {
		return
	}
	m, ok := st.IV[r].Meet(iv)
	if !ok {
		*n.dead = true
		return
	}
	st.IV[r] = m
	n.backprop(st, r, m, depth)
}

// meetSigned narrows r to the members of its interval whose int32 reading
// lies in [a, b], then back-propagates the result.
func (n edgeNarrower) meetSigned(st *State, r isa.Reg, a, b int64) {
	if r == isa.Zero {
		return
	}
	m, ok := st.IV[r].MeetSignedOK(a, b)
	if !ok {
		*n.dead = true
		return
	}
	st.IV[r] = m
	n.backprop(st, r, m, 0)
}

// backprop pushes a just-established bound on r backward through r's
// in-block definition when it is an affine step (addi or a register
// move) whose source register survives unmodified to the branch: r's
// value at the branch is then exactly src+delta, so src lies in
// bound-delta. The chase repeats through the chain (compare temporaries,
// copy propagation) up to backpropDepth.
func (n edgeNarrower) backprop(st *State, r isa.Reg, bound Interval, depth int) {
	if depth >= backpropDepth {
		return
	}
	src, delta, ok := n.affineDef(r)
	if !ok {
		return
	}
	n.meetIv(st, src, bound.Sub(IvExact(delta)), depth+1)
}

// affineDef locates the last in-block definition of r before the branch
// and, when it is `addi r, src, imm` or a register move (`add r, src,
// $zero` / `add r, $zero, src`) with src distinct from r and unmodified
// through the rest of the block, returns the (src, delta) such that
// r = src + delta still holds at the branch.
func (n edgeNarrower) affineDef(r isa.Reg) (src isa.Reg, delta uint32, ok bool) {
	i := n.az.lastDef(n.b, r)
	if i < 0 {
		return 0, 0, false
	}
	switch in := n.az.p.Insts[i]; {
	case in.Op == isa.ADDI && in.Rd == r && in.Rs != isa.Zero:
		src, delta = in.Rs, uint32(in.Imm)
	case in.Op == isa.ADD && in.Rd == r && in.Rt == isa.Zero && in.Rs != isa.Zero:
		src, delta = in.Rs, 0
	case in.Op == isa.ADD && in.Rd == r && in.Rs == isa.Zero && in.Rt != isa.Zero:
		src, delta = in.Rt, 0
	default:
		return 0, 0, false
	}
	// src must reach the branch unmodified; a self-increment's
	// (src == r) never does.
	if src == r || !n.az.survives(n.b, i, src) {
		return 0, 0, false
	}
	return src, delta, true
}

// defines reports whether in writes the integer register r.
func defines(in isa.Inst, r isa.Reg) bool {
	var buf [2]uint8
	for _, d := range in.Defs(buf[:0]) {
		if isa.Reg(d) == r {
			return true
		}
	}
	return false
}

// lastDef returns the index of the last instruction before b's branch
// that writes r, or -1 when none in b does.
func (az *analyzer) lastDef(b *block, r isa.Reg) int {
	for i := b.last - 1; i >= b.first; i-- {
		if defines(az.p.Insts[i], r) {
			return i
		}
	}
	return -1
}

// survives reports whether r reaches b's branch unmodified from
// instruction i: nothing between them writes it.
func (az *analyzer) survives(b *block, i int, r isa.Reg) bool {
	for j := i + 1; j < b.last; j++ {
		if defines(az.p.Insts[j], r) {
			return false
		}
	}
	return true
}

// narrowEqual records that two registers hold the same value: each meets
// the other's interval.
func (n edgeNarrower) narrowEqual(st *State, rs, rt isa.Reg) {
	m, ok := st.IV[rs].Meet(st.IV[rt])
	if !ok {
		*n.dead = true
		return
	}
	n.meetIv(st, rs, m, 0)
	n.meetIv(st, rt, m, 0)
}

// narrowNotEqual trims an exactly-known operand off the other operand's
// interval when it sits on a bound (the only inequality an interval can
// express).
func (n edgeNarrower) narrowNotEqual(st *State, rs, rt isa.Reg) {
	trim := func(r isa.Reg, v uint32) {
		if r == isa.Zero {
			return
		}
		iv := st.IV[r]
		switch {
		case iv.IsExact():
			if iv.Lo() == v {
				// Both sides exactly equal: the != edge is infeasible.
				*n.dead = true
			}
		case iv.Lo() == v:
			n.meetIv(st, r, IvRange(v+1, iv.Hi()), 0)
		case iv.Hi() == v:
			n.meetIv(st, r, IvRange(iv.Lo(), v-1), 0)
		}
	}
	if st.IV[rt].IsExact() {
		trim(rs, st.IV[rt].Lo())
	}
	if st.IV[rs].IsExact() {
		trim(rt, st.IV[rs].Lo())
	}
}

// comparison is an slt-family instruction whose 0/1 result feeds a branch:
// x < y, signed or unsigned, with y a register or an immediate.
type comparison struct {
	op     isa.Op // SLT, SLTU, SLTI, or SLTIU
	x      isa.Reg
	yReg   isa.Reg
	yImm   uint32
	yIsImm bool
}

// comparisonAt finds the in-block definition of the branch's tested
// register and returns the comparison it encodes, provided the compared
// operands survive unmodified to the branch (so their abstract values at
// the branch are the values the comparison saw).
func (az *analyzer) comparisonAt(b *block, cond isa.Reg) (comparison, bool) {
	i := az.lastDef(b, cond)
	if i < 0 {
		return comparison{}, false
	}
	var cmp comparison
	switch in := az.p.Insts[i]; in.Op {
	case isa.SLT, isa.SLTU:
		cmp = comparison{op: in.Op, x: in.Rs, yReg: in.Rt}
	case isa.SLTI, isa.SLTIU:
		cmp = comparison{op: in.Op, x: in.Rs, yImm: uint32(in.Imm), yIsImm: true}
	default:
		return comparison{}, false
	}
	if cmp.x == cond || (!cmp.yIsImm && cmp.yReg == cond) {
		return comparison{}, false
	}
	if !az.survives(b, i, cmp.x) || (!cmp.yIsImm && !az.survives(b, i, cmp.yReg)) {
		return comparison{}, false
	}
	return cmp, true
}

// narrowCompare applies the comparison (when holds) or its negation (when
// not) to the state's intervals for both operands, back-propagating each
// refined bound through its def chain.
func (n edgeNarrower) narrowCompare(st *State, c comparison, holds bool) {
	xIv := st.IV[c.x]
	yIv := IvExact(c.yImm)
	if !c.yIsImm {
		yIv = st.IV[c.yReg]
	}
	yReg := isa.Zero
	if !c.yIsImm {
		yReg = c.yReg
	}
	if c.op == isa.SLT || c.op == isa.SLTI {
		ax, _ := xIv.signedRange()
		_, by := yIv.signedRange()
		if holds { // x < y (signed)
			n.meetSigned(st, c.x, math.MinInt32, by-1)
			n.meetSigned(st, yReg, ax+1, math.MaxInt32)
		} else { // x >= y
			ay, _ := yIv.signedRange()
			_, bx := xIv.signedRange()
			n.meetSigned(st, c.x, ay, math.MaxInt32)
			n.meetSigned(st, yReg, math.MinInt32, bx)
		}
		return
	}
	// SLTU / SLTIU: unsigned, directly on the interval bounds.
	meetU := func(r isa.Reg, lo, hi uint64) {
		if lo > hi || lo > math.MaxUint32 {
			if r != isa.Zero {
				*n.dead = true
			}
			return
		}
		n.meetIv(st, r, IvRange(uint32(lo), uint32(min(hi, math.MaxUint32))), 0)
	}
	if holds { // x < y (unsigned)
		if yIv.Hi() > 0 {
			meetU(c.x, 0, uint64(yIv.Hi())-1)
		} else {
			// y is exactly 0: nothing is unsigned-less than it.
			*n.dead = true
		}
		meetU(yReg, uint64(xIv.Lo())+1, math.MaxUint32)
	} else { // x >= y
		meetU(c.x, uint64(yIv.Lo()), math.MaxUint32)
		meetU(yReg, 0, uint64(xIv.Hi()))
	}
}
