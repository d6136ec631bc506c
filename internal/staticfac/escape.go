package staticfac

import "repro/internal/isa"

// Address-taken escape analysis for the stack-slot domain.
//
// A stack slot's fact is only trustworthy while every write to it is a
// store the analysis sees with an exact address. The moment a slot's
// address leaks to a register-computed pointer — passed to a callee in a
// register, or stored into memory — writes can reach it from code the
// flow-sensitive pass does not attribute to that address, so the fact
// must be dropped at every call boundary from then on.
//
// Escapes are detected at two kinds of program points, on reached code
// only:
//
//   - calls and computed jumps (jal/jalr, jr to a non-return target):
//     every integer register except $sp and $zero is scanned. $sp itself
//     is exempt because the callee deriving its own frame from it is the
//     ABI; the call-clobber rule in returnState already confines callees
//     to addresses below the caller's $sp.
//   - stores: the data register is scanned (a pointer written to memory
//     can be reloaded anywhere).
//
// A register leaks a stack address if it holds an exact value inside the
// stack region, or if it carries the Deriv taint — an inexact value
// derived from a stack pointer (see State.Deriv). A tainted leak could
// be any slot, so it degrades to escape-all.
//
// The escape set is monotone across the whole analysis (all rounds of
// the outer memory fixpoint): once an address is out, it stays out.
// An escaped address v grants the callee access to every slot at or
// above v — passing &a[0] exposes the whole array, and anything the
// callee can reach upward from it. Accesses *below* an escaped address
// are out of contract (AssumptionsNote: pointers only reach their own
// object and upward within the frame), mirroring what C allows.
type escapeSet struct {
	addrs map[uint32]uint32 // word-aligned escaped addr -> pc of the first taking instruction
	min   uint32            // smallest escaped addr (meaningful when len(addrs) > 0)
	all   bool              // a tainted (inexact stack-derived) value leaked
	allPC uint32            // pc of the leak that set all
	// grew counts the additions to the set. The fixpoints read it before
	// and after a pass to learn whether the pass grew the set, the only
	// environment state a pass can change.
	grew int
}

// maxEscapes bounds the tracked address set; beyond it the analysis
// degrades to escape-all rather than growing without bound.
const maxEscapes = 1024

// escape records addr as escaped at pc.
func (s *escapeSet) escape(addr, pc uint32) {
	if s.all {
		return
	}
	if s.addrs == nil {
		s.addrs = make(map[uint32]uint32)
	}
	if _, ok := s.addrs[addr]; ok {
		return
	}
	if len(s.addrs) >= maxEscapes {
		s.escapeAll(pc)
		return
	}
	s.addrs[addr] = pc
	if len(s.addrs) == 1 || addr < s.min {
		s.min = addr
	}
	s.grew++
}

// escapeAll degrades the whole stack to escaped.
func (s *escapeSet) escapeAll(pc uint32) {
	if s.all {
		return
	}
	s.all = true
	s.allPC = pc
	s.grew++
}

// covers reports whether a slot at addr may be written through escaped
// pointers (and must therefore be dropped across calls).
func (s *escapeSet) covers(addr uint32) bool {
	return s.all || (len(s.addrs) > 0 && addr >= s.min)
}

// blame returns the pc of the instruction responsible for addr being
// escaped, for -explain chains.
func (s *escapeSet) blame(addr uint32) (uint32, bool) {
	if pc, ok := s.addrs[addr]; ok {
		return pc, true
	}
	if s.all {
		return s.allPC, true
	}
	// Covered by a lower escaped address: report the lowest one at or
	// below addr deterministically.
	bestAddr, bestPC, found := uint32(0), uint32(0), false
	for a, pc := range s.addrs {
		if a <= addr && (!found || a < bestAddr) {
			bestAddr, bestPC, found = a, pc, true
		}
	}
	return bestPC, found
}

// noteReg records any stack-address leak through register r at pc.
func (m *memEnv) noteReg(st *State, r isa.Reg, pc uint32) {
	if !m.trackEscapes {
		return
	}
	if st.Deriv&(1<<uint(r)) != 0 {
		m.esc.escapeAll(pc)
	} else if k := st.R[r]; k.IsExact() && k.Ones >= m.stackLo {
		m.esc.escape(k.Ones&^3, pc)
	}
}

// callScan applies noteReg to every register a callee could receive.
func (m *memEnv) callScan(st *State, pc uint32) {
	if !m.trackEscapes {
		return
	}
	for r := 1; r < isa.NumRegs; r++ {
		if r == int(isa.SP) {
			continue
		}
		m.noteReg(st, isa.Reg(r), pc)
	}
}
