package staticfac

import (
	"maps"
	"sort"

	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/prog"
)

// AssumptionsNote documents the linkage facts the interprocedural analysis
// relies on. They hold for everything the MiniC toolchain emits and for
// ABI-clean hand assembly; internal/difftest cross-validates the resulting
// verdicts dynamically on every fuzzed program.
const AssumptionsNote = `the analysis assumes the toolchain's linkage conventions:
(1) callees preserve $sp across jal/jalr (caller-sp survives to the return point);
(2) callees preserve $s0-$s7 (the compiler saves and restores every s-register
    it allocates, and the runtime never touches them), so loop variables held
    in s-registers keep their abstract values across calls in the loop body;
(3) indirect jumps target function symbols (jalr) or post-call return points (jr);
(4) direct jumps and branches may target anything, and are followed exactly;
(5) the data/heap and stack regions stay disjoint: the program break only grows
    upward from HeapBase (sbrk never wraps) and stays below the live stack, and
    $sp stays within the stack region;
(6) stack pointers are never forged: code reaches a stack slot only through that
    frame's own $sp, or upward from an address it was handed (taking &x exposes
    x and everything above it in the frame, never below — the C object model).`

// Site is the analysis result for one static memory-access instruction.
type Site struct {
	PC   uint32
	Inst isa.Inst
	Func string
	// Store marks store sites (predictable stores matter only to machines
	// that speculate stores, but the verdict is a circuit property).
	Store bool
	Mode  isa.AddrMode
	// Base and Offset are the abstract operand values flowing into the
	// predictor at this site (the offset of an AMConst/AMPost site is exact
	// by construction).
	Base, Offset KB
	// CanFail is the union of failure signals some execution may raise;
	// MustFail reports that every execution raises at least one of them.
	CanFail  fac.Failure
	MustFail bool
	Verdict  Verdict
	// Reached is false when the dataflow never reached the site (dead code
	// or code reachable only outside the linkage assumptions); such sites
	// are classified from the flow-insensitive register invariant alone.
	Reached bool
	// IvRefined reports that the interval domain proved operand bits the
	// known-bits domain alone could not (KB.Refine tightened Base or
	// Offset). The verdict may still be unknown — on the stock layout many
	// bounded strided walks genuinely fail on some iterations and not
	// others — but the tightened CanFail mask is visible in -sites output.
	IvRefined bool
	// CellKind/CellAddr/Val are the memory domain's claim about the site:
	// when CellKind is not CellNone the access provably targets the named
	// tracked cell and every value it transfers (loaded for loads, stored
	// for stores) lies inside Val — a claim the difftest value-soundness
	// oracle checks against the dynamically observed values.
	CellKind CellKind
	CellAddr uint32
	Val      MemVal
}

// CellKind classifies the tracked memory cell behind a site's value claim.
type CellKind uint8

const (
	CellNone CellKind = iota
	CellGlobal
	CellStack
)

// Exported cell-kind names; reports must use these, not literals.
const (
	CellKindGlobalName = "global"
	CellKindStackName  = "stack"
)

func (k CellKind) String() string {
	switch k {
	case CellGlobal:
		return CellKindGlobalName
	case CellStack:
		return CellKindStackName
	default:
		return ""
	}
}

// Analysis holds per-site verdicts for one program under one predictor
// geometry.
type Analysis struct {
	Geom  fac.Config
	Sites []Site // sorted by PC
	byPC  map[uint32]int
	// az is retained for -explain blame chains (see explain.go); the
	// pre-state recording it needs is rebuilt lazily on first use.
	az        *analyzer
	preStates map[int]State
}

// SiteAt returns the site at pc, or nil if pc is not a memory instruction.
func (a *Analysis) SiteAt(pc uint32) *Site {
	if i, ok := a.byPC[pc]; ok {
		return &a.Sites[i]
	}
	return nil
}

// Summary is the per-program verdict tally.
type Summary struct {
	Sites, Loads, Stores int
	ByVerdict            [3]int // indexed by Verdict
	// IvRefined counts sites whose operand facts the interval domain
	// tightened beyond plain known-bits (see Site.IvRefined).
	IvRefined int
}

// Classified returns the fraction of sites with a non-Unknown verdict.
func (s Summary) Classified() float64 {
	if s.Sites == 0 {
		return 0
	}
	return float64(s.Sites-s.ByVerdict[VerdictUnknown]) / float64(s.Sites)
}

// Summary tallies the analysis verdicts.
func (a *Analysis) Summary() Summary {
	var s Summary
	for i := range a.Sites {
		st := &a.Sites[i]
		s.Sites++
		if st.Store {
			s.Stores++
		} else {
			s.Loads++
		}
		s.ByVerdict[st.Verdict]++
		if st.IvRefined {
			s.IvRefined++
		}
	}
	return s
}

// Analyze runs the whole-program dataflow and classifies every memory
// access site of p under geometry g.
func Analyze(p *prog.Program, g fac.Config) *Analysis {
	az := newAnalyzer(p)
	siteStates := az.converge()

	a := &Analysis{Geom: g, byPC: make(map[uint32]int), az: az}
	for i, in := range p.Insts {
		if !in.Op.IsMem() {
			continue
		}
		pc := az.pcOf(i)
		st, reached := siteStates[i]
		if !reached {
			st = az.inv // sound at every program point
		}
		// The interval domain folds into known bits here: a register whose
		// range a loop guard bounded contributes its common-prefix bits
		// (KB.Refine), which is what lets strided array walks classify.
		site := Site{
			PC:      pc,
			Inst:    in,
			Func:    p.FuncName(pc),
			Store:   in.Op.IsStore(),
			Mode:    in.Op.Mode(),
			Base:    st.R[in.BaseReg()].Refine(st.IV[in.BaseReg()]),
			Reached: reached,
		}
		site.IvRefined = site.Base != st.R[in.BaseReg()]
		isReg := false
		switch site.Mode {
		case isa.AMConst:
			site.Offset = Exact(uint32(in.Imm))
		case isa.AMReg:
			site.Offset = st.R[in.IndexReg()].Refine(st.IV[in.IndexReg()])
			site.IvRefined = site.IvRefined || site.Offset != st.R[in.IndexReg()]
			isReg = true
		case isa.AMPost:
			site.Offset = Exact(0)
		}
		site.CanFail, site.MustFail = Classify(g, site.Base, site.Offset, isReg)
		site.Verdict = verdictOf(site.CanFail, site.MustFail)
		if reached {
			// The memory domain's value claim is only made for reached
			// sites: an unreached site's state is the invariant, whose
			// address may be exact while the flow never proved anything
			// about the cell there.
			site.CellKind, site.CellAddr, site.Val = az.siteValue(&st, in)
		}
		a.byPC[pc] = len(a.Sites)
		a.Sites = append(a.Sites, site)
	}
	return a
}

// converge runs the combined register × memory fixpoint: a full dataflow
// under the current memory environment, then commit the global-store
// effects and escapes that dataflow produced, until neither changes.
// Each round computes the invariant once, under that round's cells.
// Iteration starts from the under-approximate bottom (no effects, no
// escapes) and every commit is a monotone join, so the limit is a sound
// over-approximation of every execution (Kleene iteration); past
// maxMemRounds the environment degrades to top and one final pass runs
// under that trivially stable hypothesis.
func (az *analyzer) converge() map[int]State {
	for {
		grew := az.env.esc.grew
		az.inv = az.invariant()
		siteStates := az.run()
		effChanged := az.env.commitEffects(az.collectEffects(siteStates))
		if !effChanged && az.env.esc.grew == grew {
			return siteStates
		}
		if az.env.round > maxMemRounds {
			az.env.degrade()
			az.inv = az.invariant()
			return az.run()
		}
	}
}

// collectEffects derives the global-store effect set from the recorded
// pre-states of the reached store sites. Unreached stores are excluded —
// see the soundness discussion in memdom.go.
//
// A store whose address is provably confined to the stack region — its
// base is $sp itself (AssumptionsNote 5), its address is exactly a stack
// address, or its value range starts in the stack region — is marked
// StackOnly so it cannot poison global cells: recursive frames spill
// through an inexact $sp whose widened range would otherwise cover the
// whole address space.
func (az *analyzer) collectEffects(sites map[int]State) map[uint32]storeEffect {
	out := make(map[uint32]storeEffect)
	for i, st := range sites {
		in := az.p.Insts[i]
		if !in.Op.IsStore() {
			continue
		}
		addrK, addrIV := effAddrOf(&st, in)
		e := storeEffect{
			PC: az.pcOf(i), Size: uint32(in.Op.MemSize()),
			AddrK: addrK, AddrIV: addrIV,
			ValK: Unknown, ValIV: IvTop,
		}
		if !in.Op.FPSrc() {
			d := in.StoreDataReg()
			e.ValK, e.ValIV = st.R[d], st.IV[d]
		}
		e.StackOnly = in.BaseReg() == isa.SP ||
			(addrK.IsExact() && addrK.Ones >= az.env.stackLo) ||
			addrIV.Lo() >= az.env.stackLo
		out[e.PC] = e
	}
	return out
}

// siteValue resolves the memory domain's value claim for a reached site,
// if the access provably targets a tracked cell with a non-trivial fact.
func (az *analyzer) siteValue(st *State, in isa.Inst) (CellKind, uint32, MemVal) {
	if in.Op.FPDest() || in.Op.FPSrc() {
		return CellNone, 0, MemVal{}
	}
	addrK, _ := effAddrOf(st, in)
	if !addrK.IsExact() {
		return CellNone, 0, MemVal{}
	}
	addr := addrK.Ones
	size := uint32(in.Op.MemSize())
	switch {
	case az.env.globalCellAddr(addr, size):
		f := az.env.cell(addr)
		if f.poisoned || f.val.IsTop() {
			return CellNone, 0, MemVal{}
		}
		return CellGlobal, addr, f.val
	case az.env.stackSlotAddr(addr, size):
		if in.Op.IsStore() {
			d := in.StoreDataReg()
			v := MemVal{K: st.R[d], IV: st.IV[d].ReduceKB(st.R[d])}
			if v.IsTop() {
				return CellNone, 0, MemVal{}
			}
			return CellStack, addr, v
		}
		if s, ok := st.slot(addr); ok {
			v := MemVal{K: s.K, IV: s.IV}
			if !v.IsTop() {
				return CellStack, addr, v
			}
		}
	}
	return CellNone, 0, MemVal{}
}

// block is one basic block: the inclusive instruction-index range plus the
// control edges leaving it.
type block struct {
	first, last int
	succs       []int // unconditional edges (jump target, fallthrough)
	// Conditional-branch edges are kept apart from succs so the dataflow
	// can narrow the tested registers per edge (see refineEdges).
	brTaken, brFall int
	callFall        int // block entered on return from a jal/jalr, -1 if none
	callTarget      uint32
	hasTarget       bool // callTarget valid (jal); jalr targets are indirect
	isCall          bool
	spEscapes       bool // jr to a non-$ra register: a computed tail call
}

type analyzer struct {
	p       *prog.Program
	inv     State    // flow-insensitive register invariant of the current memory round
	ts      []uint32 // interval widening thresholds: the program's comparison constants
	env     *memEnv  // the memory domain: global cells, escapes, stack layout
	blocks  []block
	blockAt map[uint32]int
	entries []uint32 // candidate indirect-call targets: non-local text symbols + the entry point
	// espFinal is the converged entry-facts hypothesis, kept so explain.go
	// can replay the final dataflow; recordAll widens flow's recording
	// from memory sites to every instruction for that replay.
	espFinal  map[uint32]entryFacts
	recordAll bool
}

func (az *analyzer) pcOf(i int) uint32 { return az.p.TextBase + uint32(i)*isa.InstBytes }

// indexOf maps a text address to its instruction index; ok is false
// outside the text or off an instruction boundary.
func (az *analyzer) indexOf(pc uint32) (int, bool) {
	if pc < az.p.TextBase || pc >= az.p.TextEnd() || pc&3 != 0 {
		return 0, false
	}
	return int((pc - az.p.TextBase) / isa.InstBytes), true
}

// newAnalyzer recovers the CFG. The invariant waits for converge, which
// computes it under each memory round's cells.
func newAnalyzer(p *prog.Program) *analyzer {
	az := &analyzer{p: p, blockAt: make(map[uint32]int)}
	az.ts = collectThresholds(p)
	az.env = newMemEnv(p, az.ts)

	seen := map[uint32]bool{p.Entry: true}
	az.entries = append(az.entries, p.Entry)
	for _, s := range p.TextSyms() {
		if !seen[s.Addr] {
			seen[s.Addr] = true
			az.entries = append(az.entries, s.Addr)
		}
	}
	sort.Slice(az.entries, func(i, j int) bool { return az.entries[i] < az.entries[j] })

	n := len(p.Insts)
	if n == 0 {
		return az
	}
	leader := make([]bool, n)
	leader[0] = true
	for _, e := range az.entries {
		if i, ok := az.indexOf(e); ok {
			leader[i] = true
		}
	}
	for i, in := range p.Insts {
		if !in.Op.IsControl() {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
		if t, ok := in.ControlTarget(az.pcOf(i)); ok {
			if j, ok2 := az.indexOf(t); ok2 {
				leader[j] = true
			}
		}
	}

	for i := 0; i < n; i++ {
		if !leader[i] {
			continue
		}
		last := i
		for last+1 < n && !leader[last+1] {
			last++
		}
		az.blockAt[az.pcOf(i)] = len(az.blocks)
		az.blocks = append(az.blocks, block{first: i, last: last, callFall: -1, brTaken: -1, brFall: -1})
	}

	for bi := range az.blocks {
		b := &az.blocks[bi]
		in := p.Insts[b.last]
		next := -1
		if b.last+1 < n {
			next = az.blockAt[az.pcOf(b.last+1)]
		}
		target := -1
		if t, ok := in.ControlTarget(az.pcOf(b.last)); ok {
			// Every in-text target leads a block.
			if tb, ok2 := az.blockAt[t]; ok2 {
				target = tb
			}
			if in.Op == isa.JAL {
				b.callTarget, b.hasTarget = t, true
			}
		}
		switch {
		case in.Op == isa.JAL:
			b.isCall = true
			b.callFall = next
		case in.Op == isa.JALR:
			b.isCall = true
			b.callFall = next
		case in.Op == isa.JR:
			if in.Rs != isa.RA {
				b.spEscapes = true
			}
		case in.Op == isa.J:
			if target >= 0 {
				b.succs = append(b.succs, target)
			}
		case in.Op.IsBranch():
			b.brTaken, b.brFall = target, next
		default:
			if next >= 0 {
				b.succs = append(b.succs, next)
			}
		}
	}
	return az
}

// invariant computes the flow-insensitive register invariant: the least
// state that contains the architectural startup values ($gp, $sp, zeroed
// registers; $ra holds the emulator's halt address, tracked as Unknown so
// the analysis does not depend on it) and is closed under every
// instruction's transfer function. It is sound at every reachable point.
// Loads resolve against the memory environment's cells (escape tracking
// is suppressed — the invariant also walks dead code, which cannot leak
// anything); only the register halves of the stepped states feed back,
// so the invariant itself carries no slots and no taint.
func (az *analyzer) invariant() State {
	p, ts := az.p, az.ts
	saved := az.env.trackEscapes
	az.env.trackEscapes = false
	defer func() { az.env.trackEscapes = saved }()

	var inv State
	for r := range inv.R {
		inv.SetReg(isa.Reg(r), Exact(0))
	}
	inv.SetReg(isa.GP, Exact(p.GP))
	inv.SetReg(isa.SP, Exact(p.SP))
	inv.SetReg(isa.RA, Unknown)
	var defs []uint8
	for round := 0; ; round++ {
		changed := false
		for i, in := range p.Insts {
			tmp := inv
			step(&tmp, in, az.pcOf(i), az.env)
			defs = in.Defs(defs[:0])
			for _, d := range defs {
				if d >= isa.NumRegs {
					continue // FP registers and the condition flag
				}
				jk := inv.R[d].Join(tmp.R[d])
				ji := inv.IV[d].Join(tmp.IV[d])
				if round >= ivWidenRounds {
					// The KB half converges on its own (joins only clear
					// bits); the interval half needs widening to terminate.
					ji = inv.IV[d].WidenTo(ji, ts)
				}
				if jk != inv.R[d] || ji != inv.IV[d] {
					inv.R[d], inv.IV[d] = jk, ji
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return inv
}

// ivWidenRounds bounds how many ascending interval joins the fixpoint
// loops tolerate before widening moved bounds to their extremes. Small
// loop bodies converge well under the threshold; the widened precision is
// recovered below loop guards by branch narrowing.
const ivWidenRounds = 16

// collectThresholds gathers the positive constants the program compares
// against — slti/sltiu immediates and constants materialized by
// addi rd, $zero, imm (the assembler's li, which feeds register-register
// slt guards) — as interval widening thresholds, each with its
// predecessor so both the inclusive and exclusive forms of a bound have a
// landing spot. Snapping a widened bound to one of these is what lets a
// loop-counter fixpoint settle at the guard's limit (see WidenTo).
func collectThresholds(p *prog.Program) []uint32 {
	seen := make(map[uint32]bool)
	add := func(imm int32) {
		// Only positive int32 constants: the sign boundary and zero are
		// WidenTo's built-in fallbacks.
		if v := uint32(imm); imm > 0 && v < 1<<31 {
			seen[v] = true
			seen[v-1] = true
		}
	}
	for _, in := range p.Insts {
		switch in.Op {
		case isa.SLTI, isa.SLTIU:
			add(in.Imm)
		case isa.ADDI:
			if in.Rs == isa.Zero {
				add(in.Imm)
			}
		}
	}
	ts := make([]uint32, 0, len(seen))
	//lint:sorted
	for v := range seen {
		ts = append(ts, v)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// entryFacts abstracts the machine state a function can be entered with,
// joined over every call the program performs: the stack pointer and the
// four argument registers, each in both domains. Carrying arguments
// through the interprocedural fixpoint is what classifies argument-indexed
// array walks (a recursive place(k) whose k every call site bounds) and
// library routines called with exact global pointers.
type entryFacts struct {
	sp  KB
	a   [4]KB // $a0-$a3
	aIV [4]Interval
}

func (f entryFacts) join(o entryFacts) entryFacts {
	f.sp = f.sp.Join(o.sp)
	for i := range f.a {
		f.a[i] = f.a[i].Join(o.a[i])
		f.aIV[i] = f.aIV[i].Join(o.aIV[i])
	}
	return f
}

// widen accelerates the entry-facts iteration the same way WidenState
// accelerates block joins: only the interval halves need it.
func (f entryFacts) widen(next entryFacts, ts []uint32) entryFacts {
	for i := range next.aIV {
		next.aIV[i] = f.aIV[i].WidenTo(next.aIV[i], ts)
	}
	return next
}

// factsAt reads the entry facts a call site transfers to its callee.
func factsAt(st State) entryFacts {
	var f entryFacts
	f.sp = st.R[isa.SP]
	for i := range f.a {
		r := isa.A0 + isa.Reg(i)
		f.a[i] = st.R[r]
		f.aIV[i] = st.IV[r]
	}
	return f
}

// startFacts is the architectural startup state: every register zero
// except $sp (the program's initial stack pointer).
func startFacts(p *prog.Program) entryFacts {
	var f entryFacts
	f.sp = Exact(p.SP)
	for i := range f.a {
		f.a[i] = Exact(0)
		f.aIV[i] = IvExact(0)
	}
	return f
}

// unknownFacts is the degenerate hypothesis: nothing known at entry.
func unknownFacts() entryFacts {
	var f entryFacts
	f.sp = Unknown
	for i := range f.a {
		f.a[i] = Unknown
		f.aIV[i] = IvTop
	}
	return f
}

// run iterates the per-function entry-facts map to a fixpoint. esp[f]
// abstracts $sp and $a0-$a3 on entry to function f over all calls the
// program can perform; keeping it per-function (rather than one global
// join) preserves exact stack pointers through non-recursive call chains,
// which is what proves constant-offset stack accesses. The iteration that
// converges supplies the site states unless it grew the escape set; then
// one more pass under the final hypothesis and escapes records them.
func (az *analyzer) run() map[int]State {
	az.env.trackEscapes = true
	esp := map[uint32]entryFacts{az.p.Entry: startFacts(az.p)}
	for iter := 0; ; iter++ {
		grew := az.env.esc.grew
		sites, next := az.flow(esp)
		if iter >= ivWidenRounds {
			// Recursive argument chains (place(k+1)) ascend in the interval
			// half; widen them against the previous hypothesis.
			for pc, f := range next {
				if cur, ok := esp[pc]; ok {
					next[pc] = cur.widen(f, az.ts)
				}
			}
		}
		if maps.Equal(esp, next) {
			if az.env.esc.grew == grew {
				// The escape set is the only environment state a pass
				// changes, so a rerun would repeat this pass exactly.
				az.espFinal = esp
				return sites
			}
			break
		}
		esp = next
		if iter >= 100 {
			// Safety valve: the chain is monotone and finite so this should
			// never trigger, but degrade soundly rather than loop.
			for k := range esp {
				esp[k] = unknownFacts()
			}
			for _, e := range az.entries {
				esp[e] = unknownFacts()
			}
			break
		}
	}
	az.espFinal = esp
	sites, _ := az.flow(esp)
	return sites
}

// joinEntry joins f into the facts of the function entered at pc, when
// pc starts a block.
func (az *analyzer) joinEntry(esp map[uint32]entryFacts, pc uint32, f entryFacts) {
	if _, ok := az.blockAt[pc]; !ok {
		return
	}
	if cur, ok := esp[pc]; ok {
		f = cur.join(f)
	}
	esp[pc] = f
}

// entryState is the abstract state on entry to a function: the global
// invariant with $sp and the argument registers narrowed to the entry
// hypothesis.
func (az *analyzer) entryState(f entryFacts) State {
	st := az.inv
	st.SetReg(isa.SP, f.sp)
	if !f.sp.IsExact() {
		// A degraded (recursive) entry $sp is an inexact stack-derived
		// pointer: taint it so copies that leak are caught. Inexact
		// stackish argument registers need no taint here — the call that
		// passed them already escalated to escape-all at the call site.
		st.Deriv |= 1 << uint(isa.SP)
	}
	for i := range f.a {
		r := isa.A0 + isa.Reg(i)
		st.R[r] = f.a[i]
		st.IV[r] = f.aIV[i].ReduceKB(f.a[i])
	}
	return st
}

// returnState is the abstract state at a post-call return point: callers
// may assume nothing about scratch registers (the invariant), and the ABI
// guarantees $sp and the callee-saved $s0-$s7 survived the call — every
// callee restores them to their at-call values, so the caller's abstract
// values flow through (AssumptionsNote 1 and 2; the difftest static
// oracle cross-validates the resulting verdicts dynamically).
func (az *analyzer) returnState(caller State) State {
	st := az.inv
	st.R[isa.SP], st.IV[isa.SP] = caller.R[isa.SP], caller.IV[isa.SP]
	st.Deriv = caller.Deriv & (1 << uint(isa.SP))
	for r := isa.S0; r <= isa.S7; r++ {
		st.R[r], st.IV[r] = caller.R[r], caller.IV[r]
		st.Deriv |= caller.Deriv & (1 << uint(r))
	}
	// Call-clobber rule for stack slots: the callee's frame lives strictly
	// below the caller's $sp, so with an exact caller $sp every slot at or
	// above it survives the call — unless its address escaped, in which
	// case the callee may have written it through a pointer.
	if spk := caller.R[isa.SP]; spk.IsExact() {
		sp := spk.Ones
		for i := 0; i < int(caller.NSlot); i++ {
			s := caller.Slots[i]
			if s.Addr >= sp && !az.env.esc.covers(s.Addr) {
				st.Slots[st.NSlot] = s
				st.NSlot++
			}
		}
	}
	return st
}

// flow runs the block-level dataflow to a fixpoint under the entry
// hypothesis, then sweeps the final states. It returns the state before
// every reached memory instruction (every instruction under recordAll)
// and the entry hypothesis the pass observed: the startup facts at the
// program entry, joined with the facts at every call.
func (az *analyzer) flow(esp map[uint32]entryFacts) (sites map[int]State, next map[uint32]entryFacts) {
	sites = make(map[int]State)
	next = map[uint32]entryFacts{az.p.Entry: startFacts(az.p)}
	nb := len(az.blocks)
	if nb == 0 {
		return sites, next
	}
	in := make([]State, nb)
	have := make([]bool, nb)
	queued := make([]bool, nb)
	joins := make([]int, nb)
	var queue []int
	push := func(b int) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}
	propagate := func(b int, st State) {
		if !have[b] {
			in[b], have[b] = st, true
			push(b)
			return
		}
		j := JoinState(in[b], st)
		if joins[b] >= ivWidenRounds {
			j = WidenState(in[b], j, az.ts)
		}
		if j != in[b] {
			joins[b]++
			in[b] = j
			push(b)
		}
	}

	// Inject entry states for every hypothesized callee, in address order
	// for determinism.
	entryPCs := make([]uint32, 0, len(esp))
	//lint:sorted
	for pc := range esp {
		if _, ok := az.blockAt[pc]; ok {
			entryPCs = append(entryPCs, pc)
		}
	}
	sort.Slice(entryPCs, func(i, j int) bool { return entryPCs[i] < entryPCs[j] })
	for _, pc := range entryPCs {
		propagate(az.blockAt[pc], az.entryState(esp[pc]))
	}

	// step walks one block from its in-state, invoking visit before each
	// instruction, and returns the out-state.
	stepBlock := func(bi int, visit func(i int, st *State)) State {
		b := &az.blocks[bi]
		st := in[bi]
		for i := b.first; i <= b.last; i++ {
			if visit != nil {
				visit(i, &st)
			}
			step(&st, az.p.Insts[i], az.pcOf(i), az.env)
		}
		return st
	}

	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		queued[bi] = false
		st := stepBlock(bi, nil)
		b := &az.blocks[bi]
		if b.brTaken >= 0 || b.brFall >= 0 {
			taken, fall, takenOK, fallOK := az.refineEdges(b, st)
			if b.brTaken >= 0 && takenOK {
				propagate(b.brTaken, taken)
			}
			if b.brFall >= 0 && fallOK {
				propagate(b.brFall, fall)
			}
		}
		for _, s := range b.succs {
			propagate(s, st)
		}
		if b.isCall && b.callFall >= 0 {
			propagate(b.callFall, az.returnState(st))
		}
	}

	// Final sweep over the converged states: record site states and the
	// entry facts observed at call sites. An indirect call or computed
	// tail jump may enter any candidate target.
	for bi := range az.blocks {
		if !have[bi] {
			continue
		}
		b := &az.blocks[bi]
		st := stepBlock(bi, func(i int, s *State) {
			if az.recordAll || az.p.Insts[i].Op.IsMem() {
				sites[i] = *s
			}
		})
		switch f := factsAt(st); {
		case b.isCall && b.hasTarget:
			az.joinEntry(next, b.callTarget, f)
		case b.isCall || b.spEscapes:
			for _, e := range az.entries {
				az.joinEntry(next, e, f)
			}
		}
	}
	return sites, next
}
