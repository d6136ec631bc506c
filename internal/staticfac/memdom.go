package staticfac

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
)

// memdom.go — the abstract memory domain: a global-scalar domain over
// data-section cells plus the machinery behind flow-sensitive stack
// slots (transfer.go holds the per-state slot representation).
//
// # Global-scalar cells
//
// A cell is a word-aligned 4-byte location in the statically allocated
// data region [dataLo, dataHi). Its fact is flow-insensitive: the join
// of the cell's initial image value with the abstract value of every
// store that may write it anywhere in the program — so a global that is
// written once before a loop ("n = 9") bounds every load of it, which
// is exactly the memory-resident-loop-limit case the register domains
// cannot touch.
//
// Store effects are collected from the *reached* store sites of the
// converged dataflow, and the whole analysis iterates store-collection
// against dataflow to a combined fixpoint (see Analyze). Restricting to
// reached stores is load-bearing: every linked binary carries the dead
// runtime prelude, whose $sp-relative stores have a fully unknown base
// under the flow-insensitive invariant and would poison every cell in
// every program. The restriction is sound because static reachability
// is itself one of the analysis' checked claims — difftest asserts
// "every executed site is statically reachable" on every run, so a
// store the dataflow misses is a reported soundness bug, not a silent
// hole.
//
// A store with an exact word-aligned address contributes a join; any
// other store that may overlap a cell (per the known-bits × interval
// address abstraction) poisons it — the fact degrades to top and the
// poisoning store's pc is kept for -explain blame chains.
//
// # The heap
//
// Heap addresses come only from sbrk, which the transfer models as
// [HeapBase, 2^32) (emu.SysSbrk returns the old break and grows
// upward). That keeps heap traffic disjoint from global cells — below
// HeapBase — without any heap modeling; AssumptionsNote's no-heap-wrap
// clause covers the emulator's unchecked break arithmetic.

// MemVal is one tracked memory value in both domains.
type MemVal struct {
	K  KB
	IV Interval
}

func topMemVal() MemVal { return MemVal{K: Unknown, IV: IvTop} }

// IsTop reports whether the value carries no information.
func (v MemVal) IsTop() bool { return v.K == Unknown && v.IV.IsTop() }

// String renders the value as its known-bits pattern plus interval.
func (v MemVal) String() string { return v.K.String() + " " + v.IV.String() }

// storeEffect is the abstract write of one reached store site: the
// address and stored value in both domains. Effects are keyed by pc and
// joined monotonically across outer rounds, so the combined fixpoint
// terminates (KB joins only clear bits; intervals widen after
// memWidenRounds).
type storeEffect struct {
	PC     uint32
	Size   uint32
	AddrK  KB
	AddrIV Interval
	ValK   KB
	ValIV  Interval
	// StackOnly marks a store provably confined to the stack region
	// (AssumptionsNote 5): it can never touch a global cell, even when
	// its widened address range is otherwise useless. See
	// analyzer.collectEffects.
	StackOnly bool
}

// exactWord reports whether the effect is precisely a 4-byte write of
// the word-aligned cell at addr.
func (e storeEffect) exactWord(addr uint32) bool {
	return e.Size == 4 && e.AddrK.IsExact() && e.AddrK.Ones == addr
}

// mayTouch reports whether the effect can write any byte of
// [addr, addr+width). Both address domains must admit a starting
// address in [addr-Size+1, addr+width-1]; with Size ≤ 8 that is at
// most 11 candidates.
func (e storeEffect) mayTouch(addr, width uint32) bool {
	for a := addr - e.Size + 1; a != addr+width; a++ {
		if e.AddrK.Contains(a) && e.AddrIV.Contains(a) {
			return true
		}
	}
	return false
}

func (e storeEffect) join(o storeEffect) storeEffect {
	e.AddrK = e.AddrK.Join(o.AddrK)
	e.AddrIV = e.AddrIV.Join(o.AddrIV)
	e.ValK = e.ValK.Join(o.ValK)
	e.ValIV = e.ValIV.Join(o.ValIV)
	e.StackOnly = e.StackOnly && o.StackOnly
	return e
}

// cellFact is the resolved fact for one global cell under the current
// effect set, with provenance for blame chains.
type cellFact struct {
	val      MemVal
	poisoned bool
	blamePC  uint32   // the poisoning store, when poisoned
	stores   []uint32 // contributing store pcs (capped), for -explain
}

const (
	// memWidenRounds is the outer round after which committed effect
	// intervals widen instead of growing step by step.
	memWidenRounds = 4
	// maxMemRounds caps the outer dataflow↔effects fixpoint; past it the
	// memory domain degrades to top (degrade) rather than loop.
	maxMemRounds = 12
	// maxBlameStores caps per-cell provenance.
	maxBlameStores = 4
)

// memEnv is the analyzer's memory environment: the program's data
// layout, the committed store-effect set, the escape set, and the
// per-round cell cache. One memEnv lives for the whole Analyze call;
// commitEffects advances it between outer rounds.
type memEnv struct {
	p              *prog.Program
	dataLo, dataHi uint32 // global cells live in [dataLo, dataHi)
	stackLo        uint32 // exact addresses ≥ stackLo are stack slots
	ts             []uint32

	effects map[uint32]storeEffect
	order   []uint32 // effect pcs, ascending, for deterministic queries
	cells   map[uint32]cellFact

	esc          escapeSet
	trackEscapes bool

	round    int
	degraded bool
}

func newMemEnv(p *prog.Program, ts []uint32) *memEnv {
	return &memEnv{
		p:       p,
		dataLo:  p.DataBase,
		dataHi:  p.HeapBase,
		stackLo: p.HeapBase,
		ts:      ts,
		effects: make(map[uint32]storeEffect),
		cells:   make(map[uint32]cellFact),
	}
}

// globalCellAddr reports whether an exact address names a trackable
// global cell for an access of the given size.
func (m *memEnv) globalCellAddr(addr, size uint32) bool {
	return size == 4 && addr&3 == 0 && addr >= m.dataLo && addr < m.dataHi
}

// stackSlotAddr reports whether an exact address names a trackable
// stack slot for an access of the given size.
func (m *memEnv) stackSlotAddr(addr, size uint32) bool {
	return size == 4 && addr&3 == 0 && addr >= m.stackLo
}

// cell resolves the fact for the word-aligned global cell at addr under
// the committed effects, memoized per round.
func (m *memEnv) cell(addr uint32) cellFact {
	if m.degraded {
		return cellFact{val: topMemVal(), poisoned: true}
	}
	if f, ok := m.cells[addr]; ok {
		return f
	}
	init := m.p.InitialWord(addr)
	f := cellFact{val: MemVal{K: Exact(init), IV: IvExact(init)}}
	for _, pc := range m.order {
		e := m.effects[pc]
		if e.StackOnly {
			continue
		}
		if e.exactWord(addr) {
			f.val.K = f.val.K.Join(e.ValK)
			f.val.IV = f.val.IV.Join(e.ValIV)
			if len(f.stores) < maxBlameStores {
				f.stores = append(f.stores, pc)
			}
		} else if e.mayTouch(addr, 4) {
			f = cellFact{val: topMemVal(), poisoned: true, blamePC: pc}
			break
		}
	}
	m.cells[addr] = f
	return f
}

// effAddrOf computes the abstract effective address of a memory
// instruction in the pre-state, per addressing mode (post-increment
// presents the raw base).
func effAddrOf(st *State, in isa.Inst) (KB, Interval) {
	base, baseIV := st.R[in.BaseReg()], st.IV[in.BaseReg()]
	switch in.Op.Mode() {
	case isa.AMReg:
		k := base.Add(st.R[in.IndexReg()])
		return k, baseIV.Add(st.IV[in.IndexReg()]).ReduceKB(k)
	case isa.AMPost:
		return base, baseIV
	default:
		k := base.Add(Exact(uint32(in.Imm)))
		return k, baseIV.Add(IvExact(uint32(in.Imm))).ReduceKB(k)
	}
}

// loadFact resolves the abstract value a load may observe: a global
// cell fact for an exact data-section address, a live stack-slot fact
// for an exact stack address, and top for an untracked location (a
// poisoned cell is untracked).
func (m *memEnv) loadFact(st *State, in isa.Inst, addrK KB) MemVal {
	if !addrK.IsExact() {
		return topMemVal()
	}
	addr := addrK.Ones
	size := uint32(in.Op.MemSize())
	switch {
	case m.globalCellAddr(addr, size):
		if f := m.cell(addr); !f.poisoned {
			return f.val
		}
	case m.stackSlotAddr(addr, size):
		if s, ok := st.slot(addr); ok {
			return MemVal{K: s.K, IV: s.IV}
		}
	}
	return topMemVal()
}

// storeUpdate applies a store's effect on the flow-sensitive state:
// escape detection on the data register, then a strong update of the
// named slot for an exact stack word, or a may-overlap kill of every
// slot the address abstraction admits. Global cells are handled
// flow-insensitively by the effect set, not here.
func (m *memEnv) storeUpdate(st *State, in isa.Inst, pc uint32, addrK KB, addrIV Interval) {
	size := uint32(in.Op.MemSize())
	if !in.Op.FPSrc() {
		m.noteReg(st, in.StoreDataReg(), pc)
	}
	if addrK.IsExact() {
		addr := addrK.Ones
		if m.stackSlotAddr(addr, size) && !in.Op.FPSrc() {
			d := in.StoreDataReg()
			st.setSlot(addr, st.R[d], st.IV[d], pc)
			return
		}
		if uint64(addr)+uint64(size) <= uint64(m.stackLo) {
			// An exact write entirely below the stack region cannot
			// touch any slot.
			return
		}
	}
	e := storeEffect{Size: size, AddrK: addrK, AddrIV: addrIV}
	st.killSlots(func(s Slot) bool { return e.mayTouch(s.Addr, 4) })
}

// commitEffects merges one round's collected effects into the
// environment (monotone join per store pc, widening after
// memWidenRounds), resets the cell cache, and reports whether anything
// changed — the outer fixpoint's termination test.
func (m *memEnv) commitEffects(collected map[uint32]storeEffect) bool {
	changed := false
	for pc, e := range collected {
		old, ok := m.effects[pc]
		if !ok {
			m.effects[pc] = e
			changed = true
			continue
		}
		merged := old.join(e)
		if m.round >= memWidenRounds {
			merged.AddrIV = old.AddrIV.WidenTo(merged.AddrIV, m.ts)
			merged.ValIV = old.ValIV.WidenTo(merged.ValIV, m.ts)
		}
		if merged != old {
			m.effects[pc] = merged
			changed = true
		}
	}
	if changed {
		m.order = m.order[:0]
		//lint:sorted
		for pc := range m.effects {
			m.order = append(m.order, pc)
		}
		sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	}
	m.cells = make(map[uint32]cellFact)
	m.round++
	return changed
}

// degrade abandons memory precision after maxMemRounds: every cell is
// poisoned and the whole stack escapes, which is a trivially stable
// (and sound) environment for one final dataflow pass.
func (m *memEnv) degrade() {
	m.degraded = true
	m.esc.escapeAll(0)
	m.cells = make(map[uint32]cellFact)
}
