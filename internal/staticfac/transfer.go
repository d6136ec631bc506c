package staticfac

import "repro/internal/isa"

// MaxSlots bounds the tracked stack slots per flow-sensitive state.
// When a state is full, new facts are dropped (sound: a missing slot is
// simply untracked).
const MaxSlots = 16

// Slot is one tracked stack cell: a word-aligned concrete address whose
// content the flow-sensitive pass has proven. Addr == 0 marks an empty
// entry; Def is the pc of the defining store (0 when a join merged
// differing definitions), kept for -explain blame chains.
type Slot struct {
	Addr uint32
	Def  uint32
	K    KB
	IV   Interval
}

// State abstracts the integer register file as a reduced product of two
// domains per register: known bits (R) and an unsigned value range (IV).
// FP registers and the FP condition flag never feed address computation
// and are not tracked. Every write goes through both domains and clamps
// the interval to the KB-consistent range, so the product never drifts
// apart; the reverse reduction (intervals sharpening KB) happens once per
// site at classification time (KB.Refine).
//
// Beside the registers, a State carries up to MaxSlots stack-slot facts
// (Slots[:NSlot], sorted by address, zero-valued tail — the canonical
// form keeps State comparable with ==, which the fixpoints rely on) and
// Deriv, a taint bitmask marking registers that may hold an *inexact*
// stack-derived pointer. Exact stack pointers need no taint (their value
// is visible to the escape scan); tainted ones force escape-all when
// they leak. Values loaded from memory are never tainted: any stack
// pointer that reached memory already escaped at its store.
type State struct {
	R     [isa.NumRegs]KB
	IV    [isa.NumRegs]Interval
	Slots [MaxSlots]Slot
	NSlot uint8
	Deriv uint32
}

// SetReg writes one register in both domains, deriving the interval from
// the known bits. Use it wherever only a KB fact is available (entry
// hypotheses, tests).
func (st *State) SetReg(r isa.Reg, k KB) {
	st.R[r] = k
	st.IV[r] = k.Range()
}

// slot returns the tracked fact for the word-aligned stack address, if any.
func (st *State) slot(addr uint32) (Slot, bool) {
	for i := 0; i < int(st.NSlot); i++ {
		if st.Slots[i].Addr == addr {
			return st.Slots[i], true
		}
		if st.Slots[i].Addr > addr {
			break
		}
	}
	return Slot{}, false
}

// setSlot strong-updates (or inserts) the fact for a word-aligned stack
// address. A full state drops the new fact instead of evicting — losing
// a fact is always sound, and the deterministic policy keeps fixpoints
// stable.
func (st *State) setSlot(addr uint32, k KB, iv Interval, def uint32) {
	n := int(st.NSlot)
	i := 0
	for i < n && st.Slots[i].Addr < addr {
		i++
	}
	if i < n && st.Slots[i].Addr == addr {
		st.Slots[i] = Slot{Addr: addr, Def: def, K: k, IV: iv.ReduceKB(k)}
		return
	}
	if n == MaxSlots {
		return
	}
	copy(st.Slots[i+1:n+1], st.Slots[i:n])
	st.Slots[i] = Slot{Addr: addr, Def: def, K: k, IV: iv.ReduceKB(k)}
	st.NSlot++
}

// killSlots removes every slot matching drop, keeping the canonical form.
func (st *State) killSlots(drop func(Slot) bool) {
	n := int(st.NSlot)
	w := 0
	for i := 0; i < n; i++ {
		if !drop(st.Slots[i]) {
			st.Slots[w] = st.Slots[i]
			w++
		}
	}
	for i := w; i < n; i++ {
		st.Slots[i] = Slot{}
	}
	st.NSlot = uint8(w)
}

// JoinState merges two register states pointwise in both domains. Slot
// facts survive only where both sides track the same address (joined
// pointwise); the taint mask unions.
func JoinState(a, b State) State {
	var out State
	for i := range out.R {
		out.R[i] = a.R[i].Join(b.R[i])
		out.IV[i] = a.IV[i].Join(b.IV[i])
	}
	i, j := 0, 0
	for i < int(a.NSlot) && j < int(b.NSlot) {
		sa, sb := a.Slots[i], b.Slots[j]
		switch {
		case sa.Addr < sb.Addr:
			i++
		case sa.Addr > sb.Addr:
			j++
		default:
			def := sa.Def
			if sb.Def != def {
				def = 0
			}
			k := sa.K.Join(sb.K)
			out.Slots[out.NSlot] = Slot{Addr: sa.Addr, Def: def, K: k, IV: sa.IV.Join(sb.IV).ReduceKB(k)}
			out.NSlot++
			i++
			j++
		}
	}
	out.Deriv = a.Deriv | b.Deriv
	return out
}

// WidenState accelerates an ascending join chain: the KB half converges on
// its own (each join only clears bits), so only the intervals — register
// and slot — widen, snapping to the program's comparison constants (ts,
// ascending).
func WidenState(prev, next State, ts []uint32) State {
	for i := range next.IV {
		next.IV[i] = prev.IV[i].WidenTo(next.IV[i], ts)
	}
	for i := 0; i < int(next.NSlot); i++ {
		if p, ok := prev.slot(next.Slots[i].Addr); ok {
			next.Slots[i].IV = p.IV.WidenTo(next.Slots[i].IV, ts)
		}
	}
	return next
}

// step applies the abstract transfer function of one instruction to the
// state, resolving loads, stores, calls and syscalls against the memory
// environment env. It mirrors the functional emulator's integer
// semantics exactly (internal/emu): immediates are the sign-extended
// int32 stored by the decoder, logical immediates use the same
// uint32(Imm) conversion, and shift amounts are masked to 5 bits.
// Operations whose results the lattice cannot track (multiplies,
// divides, unresolvable loads, FP moves) clobber their destination to
// Unknown. Control transfers only write their link register; the CFG
// layer handles the PC. Interval arithmetic runs beside the known-bits
// transfer where it can beat the KB-derived range (add/sub chains,
// shifts, masked upper bounds); everywhere else the destination
// interval falls back to the range the KB result implies.
func step(st *State, in isa.Inst, pc uint32, env *memEnv) {
	// Taint sources are read before the switch mutates the state.
	var ubuf [4]uint8
	srcStackish := false
	for _, u := range in.Uses(ubuf[:0]) {
		if u < isa.NumRegs && stackish(st, isa.Reg(u), env) {
			srcStackish = true
			break
		}
	}

	set := func(r isa.Reg, v KB, iv Interval) {
		if r != isa.Zero {
			st.R[r] = v
			st.IV[r] = iv.ReduceKB(v)
		}
	}
	imm := uint32(in.Imm) // sign-extended for ADDI, raw low 16 reinterpreted for logicals
	switch in.Op {
	case isa.ADD:
		set(in.Rd, st.R[in.Rs].Add(st.R[in.Rt]), st.IV[in.Rs].Add(st.IV[in.Rt]))
	case isa.SUB:
		set(in.Rd, st.R[in.Rs].Sub(st.R[in.Rt]), st.IV[in.Rs].Sub(st.IV[in.Rt]))
	case isa.MUL, isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		set(in.Rd, Unknown, IvTop)
	case isa.AND:
		set(in.Rd, st.R[in.Rs].And(st.R[in.Rt]), st.IV[in.Rs].AndUpper(st.IV[in.Rt]))
	case isa.OR:
		set(in.Rd, st.R[in.Rs].Or(st.R[in.Rt]), IvTop)
	case isa.XOR:
		set(in.Rd, st.R[in.Rs].Xor(st.R[in.Rt]), IvTop)
	case isa.NOR:
		set(in.Rd, st.R[in.Rs].Nor(st.R[in.Rt]), IvTop)
	case isa.SLT, isa.SLTU, isa.SLTI, isa.SLTIU:
		set(in.Rd, Bool01(), IvTop)
	case isa.SLLV:
		if n, ok := st.R[in.Rt].LowKnown(5); ok {
			set(in.Rd, st.R[in.Rs].Shl(uint(n)), st.IV[in.Rs].Shl(uint(n)))
		} else {
			set(in.Rd, Unknown, IvTop)
		}
	case isa.SRLV:
		if n, ok := st.R[in.Rt].LowKnown(5); ok {
			set(in.Rd, st.R[in.Rs].Shr(uint(n)), st.IV[in.Rs].Shr(uint(n)))
		} else {
			set(in.Rd, Unknown, IvTop)
		}
	case isa.SRAV:
		if n, ok := st.R[in.Rt].LowKnown(5); ok {
			set(in.Rd, st.R[in.Rs].Sar(uint(n)), st.IV[in.Rs].Sar(uint(n)))
		} else {
			set(in.Rd, Unknown, IvTop)
		}
	case isa.ADDI:
		set(in.Rd, st.R[in.Rs].Add(Exact(imm)), st.IV[in.Rs].Add(IvExact(imm)))
	case isa.ANDI:
		set(in.Rd, st.R[in.Rs].And(Exact(imm)), st.IV[in.Rs].AndUpper(IvExact(imm)))
	case isa.ORI:
		set(in.Rd, st.R[in.Rs].Or(Exact(imm)), IvTop)
	case isa.XORI:
		set(in.Rd, st.R[in.Rs].Xor(Exact(imm)), IvTop)
	case isa.SLL:
		set(in.Rd, st.R[in.Rs].Shl(uint(in.Imm&31)), st.IV[in.Rs].Shl(uint(in.Imm&31)))
	case isa.SRL:
		set(in.Rd, st.R[in.Rs].Shr(uint(in.Imm&31)), st.IV[in.Rs].Shr(uint(in.Imm&31)))
	case isa.SRA:
		set(in.Rd, st.R[in.Rs].Sar(uint(in.Imm&31)), st.IV[in.Rs].Sar(uint(in.Imm&31)))
	case isa.LUI:
		set(in.Rd, Exact(imm<<16), IvTop)
	case isa.JAL:
		env.callScan(st, pc)
		set(isa.RA, Exact(pc+isa.InstBytes), IvTop)
	case isa.JALR:
		env.callScan(st, pc)
		set(in.Rd, Exact(pc+isa.InstBytes), IvTop)
	case isa.JR:
		// jr $ra is a return; any other target is a computed jump the
		// CFG fans out, which leaks registers like a call does.
		if in.Rs != isa.RA {
			env.callScan(st, pc)
		}
	case isa.SYSCALL:
		// The emulator's syscalls never write data memory, so slots
		// survive. Only sbrk writes $v0: its result is the old program
		// break, somewhere in the heap region (AssumptionsNote: the
		// break never wraps). Any other exact code leaves $v0 as the
		// code itself; an unknown code gets the conservative join.
		switch {
		case st.R[isa.V0].IsExact() && st.R[isa.V0].Ones == sysSbrk:
			set(isa.V0, Unknown, IvRange(env.stackLo, ^uint32(0)))
		case st.R[isa.V0].IsExact():
			// exit/print: $v0 unchanged.
		default:
			set(isa.V0, Unknown, IvTop)
		}
	case isa.MFC1:
		set(in.Rd, Unknown, IvTop)
	default:
		if in.Op.IsMem() {
			addrK, addrIV := effAddrOf(st, in)
			if in.Op.IsLoad() {
				if !in.Op.FPDest() {
					f := env.loadFact(st, in, addrK)
					set(in.Rd, f.K, f.IV)
				}
			} else {
				env.storeUpdate(st, in, pc, addrK, addrIV)
			}
			if in.Op.Mode() == isa.AMPost {
				set(in.Rs, st.R[in.Rs].Add(Exact(imm)), st.IV[in.Rs].Add(IvExact(imm)))
			}
		}
	}
	st.SetReg(isa.Zero, Exact(0))
	retaint(st, in, srcStackish, env)
}

// sysSbrk mirrors emu.SysSbrk; staticfac models the syscall boundary
// itself rather than importing the emulator.
const sysSbrk = 9

// stackish reports whether register r may hold a stack-derived pointer:
// either it carries the Deriv taint, or it holds an exact stack address.
func stackish(st *State, r isa.Reg, env *memEnv) bool {
	if st.Deriv&(1<<uint(r)) != 0 {
		return true
	}
	return st.R[r].IsExact() && st.R[r].Ones >= env.stackLo
}

// retaint recomputes the Deriv taint of every register the instruction
// defined. A result is tainted iff some source was stack-derived and the
// result is neither exact (escape scans see exact values directly) nor
// provably below the stack region. Results that come from memory, the FP
// file, or a syscall are never tainted — a stack pointer reaching any of
// those already escaped on the way in.
func retaint(st *State, in isa.Inst, srcStackish bool, env *memEnv) {
	var dbuf [2]uint8
	defs := in.Defs(dbuf[:0])
	if len(defs) == 0 {
		return
	}
	fromOutside := in.Op.IsLoad() || in.Op == isa.MFC1 || in.Op == isa.SYSCALL ||
		in.Op == isa.LUI || in.Op == isa.JAL || in.Op == isa.JALR
	for _, d := range defs {
		if d >= isa.NumRegs {
			continue
		}
		r := isa.Reg(d)
		bit := uint32(1) << uint(r)
		// A post-increment base update is an arithmetic def even though
		// the op is a load: only the destination register came from
		// memory.
		outside := fromOutside && !(in.Op.Mode() == isa.AMPost && r == in.Rs)
		if outside || !srcStackish || st.R[r].IsExact() || belowStack(st, r, env) {
			st.Deriv &^= bit
		} else {
			st.Deriv |= bit
		}
	}
}

// belowStack reports whether r's value range provably ends below the
// stack region (so it cannot be a usable stack pointer).
func belowStack(st *State, r isa.Reg, env *memEnv) bool {
	return st.IV[r].Hi() < env.stackLo
}
