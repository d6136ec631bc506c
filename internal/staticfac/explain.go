package staticfac

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// explain.go — blame chains: given a site, walk the converged dataflow
// backward through reaching definitions and report *why* each operand is
// imprecise, down to a root cause the analysis can name (a poisoned
// global cell with its poisoning store, an escaped stack slot with the
// address-taking instruction, an untracked syscall or multiply result, a
// function-entry join). The walk replays the final fixpoint with
// recording widened to every instruction, so it sees exactly the states
// the verdicts were computed from; output is deterministic (index-order
// scans, address-sorted symbol choice) so it can be golden-tested.

// explainDepth caps the def-chain recursion; minic's operand chains are
// short and a deeper chain than this reads as noise anyway.
const explainDepth = 16

// Explain renders the blame chain for the memory-access site at pc. The
// bool is false when pc is not a memory instruction of the program.
func (a *Analysis) Explain(pc uint32) (string, bool) {
	site := a.SiteAt(pc)
	if site == nil {
		return "", false
	}
	a.ensureReplay()
	var b strings.Builder
	fmt.Fprintf(&b, "%#08x %s  [%s]  verdict=%s\n", site.PC, site.Inst.String(), site.Func, site.Verdict)
	if site.CanFail != 0 {
		fmt.Fprintf(&b, "  can-fail: %s\n", site.CanFail.String())
	}
	fmt.Fprintf(&b, "  base   %s = %s\n", regName(site.Inst.BaseReg()), site.Base)
	if site.Mode == isa.AMReg {
		fmt.Fprintf(&b, "  offset %s = %s\n", regName(site.Inst.IndexReg()), site.Offset)
	} else {
		fmt.Fprintf(&b, "  offset %s\n", site.Offset)
	}
	if site.CellKind != CellNone {
		fmt.Fprintf(&b, "  cell   %s %#08x%s = %s\n", site.CellKind, site.CellAddr,
			a.az.dataSymSuffix(site.CellAddr), site.Val)
	}
	switch {
	case !site.Reached:
		b.WriteString("  site is dead: the dataflow never reaches it; the verdict uses the\n" +
			"  flow-insensitive invariant alone\n")
	case site.Verdict != VerdictUnknown:
		fmt.Fprintf(&b, "  classified: the operand facts above decide the predictor outcome\n")
	default:
		ex := &explainer{a: a, b: &b, seen: make(map[int64]bool)}
		idx, _ := a.az.indexOf(pc)
		if !site.Base.IsExact() {
			ex.explainReg(idx, site.Inst.BaseReg(), 1)
		}
		if site.Mode == isa.AMReg && !site.Offset.IsExact() {
			ex.explainReg(idx, site.Inst.IndexReg(), 1)
		}
	}
	return b.String(), true
}

// FirstUnknown returns the pc of the first (lowest-address) reached site
// with an unknown verdict, for `faclint -explain-first`.
func (a *Analysis) FirstUnknown() (uint32, bool) {
	for i := range a.Sites {
		if s := &a.Sites[i]; s.Verdict == VerdictUnknown && s.Reached {
			return s.PC, true
		}
	}
	return 0, false
}

// ensureReplay rebuilds the final dataflow pass with recording widened
// from memory sites to every instruction, memoized on the Analysis.
func (a *Analysis) ensureReplay() {
	if a.preStates != nil || a.az == nil || len(a.az.blocks) == 0 {
		return
	}
	az := a.az
	az.recordAll = true
	a.preStates, _ = az.flow(az.espFinal)
	az.recordAll = false
}

type explainer struct {
	a    *Analysis
	b    *strings.Builder
	seen map[int64]bool
}

// explainReg locates the reaching definition of r before instruction
// useIdx and prints one blame line for it, recursing into the definition's
// own imprecise sources. The reaching definition is approximated
// syntactically but deterministically: the nearest reached definition of r
// above the use inside the same function, else the nearest below (a
// loop-carried def), else the function-entry hypothesis.
func (ex *explainer) explainReg(useIdx int, r isa.Reg, depth int) {
	if r == isa.Zero || depth > explainDepth {
		return
	}
	key := int64(useIdx)<<8 | int64(r)
	if ex.seen[key] {
		fmt.Fprintf(ex.b, "%s%s feeds back into the chain above: the imprecision is loop-carried\n",
			strings.Repeat("  ", depth), regName(r))
		return
	}
	ex.seen[key] = true
	az := ex.a.az
	pad := strings.Repeat("  ", depth)

	cands, hasAbove := ex.findDefs(useIdx, r)
	fn := az.p.FuncName(az.pcOf(useIdx))
	// With no definition above the use, the function-entry hypothesis is a
	// reaching definition too (alongside any loop-carried def below); name
	// it when it is itself imprecise — for $sp in a recursive function this
	// is the true root cause.
	if !hasAbove {
		if f, ok := az.espFinal[funcEntryPC(az, useIdx)]; ok && (r == isa.SP || (r >= isa.A0 && r <= isa.A0+3)) {
			k, iv := f.sp, IvTop
			if r != isa.SP {
				k, iv = f.a[r-isa.A0], f.aIV[r-isa.A0]
			}
			if !k.IsExact() || len(cands) == 0 {
				fmt.Fprintf(ex.b, "%s%s carries the entry hypothesis of %s (joined over every call): %s %s\n",
					pad, regName(r), fn, k, iv)
				if len(cands) == 0 {
					return
				}
			}
		}
	}
	if len(cands) == 0 {
		fmt.Fprintf(ex.b, "%s%s has no definition inside %s: it carries the flow-insensitive invariant\n",
			pad, regName(r), fn)
		return
	}

	// Explain the candidate definitions whose result is itself imprecise;
	// when every textual definition produces an exact value, the
	// imprecision can only enter where control flow joins them.
	any := false
	for _, defIdx := range cands {
		if ex.defImprecise(defIdx, r) {
			any = true
			ex.explainDef(defIdx, r, depth)
		}
	}
	if !any {
		fmt.Fprintf(ex.b, "%s%s is exact at each definition (e.g. %#08x %s); the imprecision enters where control flow joins them\n",
			pad, regName(r), az.pcOf(cands[0]), az.p.Insts[cands[0]].String())
	}
}

// defImprecise reports whether the definition of r at defIdx yields an
// inexact known-bits value under its recorded pre-state.
func (ex *explainer) defImprecise(defIdx int, r isa.Reg) bool {
	az := ex.a.az
	saved := az.env.trackEscapes
	az.env.trackEscapes = false
	defer func() { az.env.trackEscapes = saved }()
	post := ex.a.preStates[defIdx]
	step(&post, az.p.Insts[defIdx], az.pcOf(defIdx), az.env)
	return !post.R[r].IsExact()
}

// explainDef prints one blame line for the definition at defIdx and
// recurses into its own imprecise sources.
func (ex *explainer) explainDef(defIdx int, r isa.Reg, depth int) {
	az := ex.a.az
	pad := strings.Repeat("  ", depth)
	in := az.p.Insts[defIdx]
	st := ex.a.preStates[defIdx]
	fmt.Fprintf(ex.b, "%s%s defined at %#08x %s", pad, regName(r), az.pcOf(defIdx), in.String())
	switch {
	case in.Op.IsLoad():
		ex.explainLoad(defIdx, in, &st, depth)
	case in.Op == isa.SYSCALL:
		fmt.Fprintf(ex.b, ": syscall results are untracked\n")
	case in.Op == isa.JAL || in.Op == isa.JALR:
		fmt.Fprintf(ex.b, ": clobbered by the call (only $sp and $s0-$s7 survive)\n")
	default:
		ex.b.WriteByte('\n')
		srcs := ex.impreciseUses(in, &st)
		if len(srcs) == 0 {
			fmt.Fprintf(ex.b, "%s  the imprecision is intrinsic to %s under its exact inputs\n", pad, in.Op)
			return
		}
		for _, s := range srcs {
			ex.explainReg(defIdx, s, depth+1)
		}
	}
}

// explainLoad names the memory-domain reason a load's result is imprecise.
func (ex *explainer) explainLoad(defIdx int, in isa.Inst, st *State, depth int) {
	az := ex.a.az
	addrK, _ := effAddrOf(st, in)
	if !addrK.IsExact() {
		fmt.Fprintf(ex.b, ": load address is imprecise (%s)\n", addrK)
		ex.explainReg(defIdx, in.BaseReg(), depth+1)
		if in.Op.Mode() == isa.AMReg {
			ex.explainReg(defIdx, in.IndexReg(), depth+1)
		}
		return
	}
	addr := addrK.Ones
	size := uint32(in.Op.MemSize())
	switch {
	case az.env.globalCellAddr(addr, size):
		f := az.env.cell(addr)
		sym := az.dataSymSuffix(addr)
		switch {
		case f.poisoned:
			blame := "an unreachable image-only fact"
			if f.blamePC != 0 {
				bin, _ := az.p.InstAt(f.blamePC)
				blame = fmt.Sprintf("the store at %#08x %s (address not provably disjoint)", f.blamePC, bin.String())
			}
			fmt.Fprintf(ex.b, ": global cell %#08x%s is poisoned by %s\n", addr, sym, blame)
		case len(f.stores) > 0:
			pcs := make([]string, len(f.stores))
			for i, pc := range f.stores {
				pcs[i] = fmt.Sprintf("%#08x", pc)
			}
			fmt.Fprintf(ex.b, ": global cell %#08x%s = %s, joined from the data image and stores at %s\n",
				addr, sym, f.val, strings.Join(pcs, ", "))
		default:
			fmt.Fprintf(ex.b, ": global cell %#08x%s = %s from the data image alone\n", addr, sym, f.val)
		}
	case az.env.stackSlotAddr(addr, size):
		if s, ok := st.slot(addr); ok {
			fmt.Fprintf(ex.b, ": tracked stack slot %#08x = %s, written at %#08x\n",
				addr, MemVal{K: s.K, IV: s.IV}, s.Def)
			if i, ok := az.indexOf(s.Def); ok {
				din := az.p.Insts[i]
				if din.Op.IsStore() && !din.Op.FPSrc() {
					ex.explainReg(i, din.StoreDataReg(), depth+1)
				}
			}
			return
		}
		if pc, ok := az.env.esc.blame(addr); ok {
			fmt.Fprintf(ex.b, ": stack slot %#08x is untracked — its address escaped at %#08x, so callees may write it\n",
				addr, pc)
			return
		}
		fmt.Fprintf(ex.b, ": stack slot %#08x is untracked (clobbered by a call, a may-alias store, or a control-flow join)\n", addr)
	default:
		fmt.Fprintf(ex.b, ": address %#08x is outside the tracked data and stack regions\n", addr)
	}
}

// impreciseUses returns the integer source registers of in whose
// known-bits value in st is inexact, in register order.
func (ex *explainer) impreciseUses(in isa.Inst, st *State) []isa.Reg {
	var buf []uint8
	buf = in.Uses(buf)
	var out []isa.Reg
	for _, u := range buf {
		if u >= isa.NumRegs {
			continue
		}
		r := isa.Reg(u)
		if r == isa.Zero || st.R[r].IsExact() {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// findDefs returns the nearest reached definition of r above useIdx
// inside the same function and the nearest below it (a loop-carried def
// observed through the back edge), in that order — the reaching set a
// use inside a loop actually joins, approximated syntactically but
// deterministically. hasAbove reports whether a backward definition was
// found; without one the function-entry state also reaches the use.
func (ex *explainer) findDefs(useIdx int, r isa.Reg) (_ []int, hasAbove bool) {
	az := ex.a.az
	fn := az.p.FuncName(az.pcOf(useIdx))
	reachedDef := func(i int) bool {
		_, ok := ex.a.preStates[i]
		return ok && defines(az.p.Insts[i], r)
	}
	var out []int
	for i := useIdx - 1; i >= 0 && az.p.FuncName(az.pcOf(i)) == fn; i-- {
		if reachedDef(i) {
			out = append(out, i)
			hasAbove = true
			break
		}
	}
	for i := useIdx + 1; i < len(az.p.Insts) && az.p.FuncName(az.pcOf(i)) == fn; i++ {
		if reachedDef(i) {
			out = append(out, i)
			break
		}
	}
	return out, hasAbove
}

// funcEntryPC returns the address of the function symbol covering idx.
func funcEntryPC(az *analyzer, idx int) uint32 {
	pc := az.pcOf(idx)
	fn := az.p.FuncName(pc)
	best := az.p.TextBase
	for _, s := range az.p.TextSyms() {
		if s.Name == fn && s.Addr <= pc && s.Addr >= best {
			best = s.Addr
		}
	}
	return best
}

// dataSymSuffix renders " (sym+off)" for the nearest data symbol at or
// below addr, or "" when none covers it.
func (az *analyzer) dataSymSuffix(addr uint32) string {
	best, bestAddr, found := "", uint32(0), false
	for _, n := range az.p.SymbolNames() {
		a := az.p.Symbols[n]
		if len(n) > 0 && n[0] == '.' {
			continue
		}
		if a >= az.env.dataLo && a < az.env.dataHi && a <= addr && (!found || a > bestAddr) {
			best, bestAddr, found = n, a, true
		}
	}
	if !found {
		return ""
	}
	if off := addr - bestAddr; off != 0 {
		return fmt.Sprintf(" (%s+%d)", best, off)
	}
	return fmt.Sprintf(" (%s)", best)
}

func regName(r isa.Reg) string { return r.String() }
