//lint:hotpath Note runs once per executed instruction of a profiled program.

// Package profile implements the reference-behavior analyses of the paper's
// Section 2 and the prediction-accuracy measurements of Section 5.3/5.4:
// dynamic load/store counts, the breakdown of loads by addressing class
// (global pointer / stack pointer / general pointer), cumulative offset-size
// distributions, and fast-address-calculation failure rates for any set of
// predictor geometries.
package profile

import (
	"math/bits"

	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/prog"
)

// RefType classifies a memory reference by its base register, as in the
// paper: the global pointer, the stack/frame pointer, or anything else.
type RefType uint8

const (
	Global RefType = iota
	Stack
	General
	NumRefTypes
)

func (r RefType) String() string {
	switch r {
	case Global:
		return "global"
	case Stack:
		return "stack"
	}
	return "general"
}

// Classify maps a base register to its reference type.
func Classify(base isa.Reg) RefType {
	switch base {
	case isa.GP:
		return Global
	case isa.SP, isa.FP:
		return Stack
	}
	return General
}

// OffsetBuckets is the number of offset-size buckets: bucket 0 holds zero
// offsets, bucket k (1..32) offsets of k bits; negatives are counted apart.
const OffsetBuckets = 33

// GeomStats holds prediction outcomes for one predictor geometry.
type GeomStats struct {
	Geom fac.Config
	// All accesses.
	LoadFails  uint64
	StoreFails uint64
	// Excluding register+register mode (the paper's "No R+R" columns).
	LoadFailsNoRR  uint64
	StoreFailsNoRR uint64
}

// Profile accumulates reference behaviour over a program's execution.
type Profile struct {
	Insts  uint64
	Loads  uint64
	Stores uint64

	LoadsByType  [NumRefTypes]uint64
	StoresByType [NumRefTypes]uint64

	// Offset-size histograms for loads, per reference type.
	LoadOffsetBits [NumRefTypes][OffsetBuckets]uint64
	LoadNegOffsets [NumRefTypes]uint64

	// Register+register-mode reference counts.
	LoadsRR  uint64
	StoresRR uint64

	// Data TLB behaviour (paper Section 5.4: 64-entry fully-associative,
	// 4KB pages, random replacement).
	TLBAccesses uint64
	TLBMisses   uint64

	Geoms []GeomStats
}

// DTLBMissRatio returns the data TLB miss ratio.
func (p *Profile) DTLBMissRatio() float64 {
	return frac(p.TLBMisses, p.TLBAccesses)
}

// Profiler consumes an instruction trace.
type Profiler struct {
	P   Profile
	tlb *TLB
}

// New creates a profiler measuring the given predictor geometries.
func New(geoms ...fac.Config) *Profiler {
	p := &Profiler{tlb: NewTLB(DefaultTLBConfig())}
	for _, g := range geoms {
		//lint:alloc-ok
		p.P.Geoms = append(p.P.Geoms, GeomStats{Geom: g})
	}
	return p
}

// offsetBucket classifies a non-negative offset by bit length.
func offsetBucket(v uint32) int {
	if v == 0 {
		return 0
	}
	return bits.Len32(v)
}

// Note records one executed instruction. It classifies the instruction
// once, from its pre-decoded flags, so the trace must carry Pre (the
// emulator's traces always do).
func (p *Profiler) Note(tr *emu.Trace) {
	p.P.Insts++
	f := tr.Pre.Flags
	if f&isa.PreMem == 0 {
		return
	}
	isLoad := f&isa.PreLoad != 0
	isRR := f&isa.PreRegOffset != 0
	rt := Classify(tr.Inst.BaseReg())

	p.tlb.Access(tr.EffAddr)
	p.P.TLBAccesses, p.P.TLBMisses = p.tlb.Counts()

	if isLoad {
		p.P.Loads++
		p.P.LoadsByType[rt]++
		if isRR {
			p.P.LoadsRR++
		}
		if tr.Offset&0x80000000 != 0 {
			p.P.LoadNegOffsets[rt]++
		} else {
			p.P.LoadOffsetBits[rt][offsetBucket(tr.Offset)]++
		}
	} else {
		p.P.Stores++
		p.P.StoresByType[rt]++
		if isRR {
			p.P.StoresRR++
		}
	}

	for i := range p.P.Geoms {
		g := &p.P.Geoms[i]
		if g.Geom.Verify(tr.Base, tr.Offset, tr.IsRegOffset) == 0 {
			continue
		}
		if isLoad {
			g.LoadFails++
			if !isRR {
				g.LoadFailsNoRR++
			}
		} else {
			g.StoreFails++
			if !isRR {
				g.StoreFailsNoRR++
			}
		}
	}
}

// LoadFailRate returns the fraction of loads mispredicted under geometry i.
func (p *Profile) LoadFailRate(i int) float64 {
	return frac(p.Geoms[i].LoadFails, p.Loads)
}

// StoreFailRate returns the fraction of stores mispredicted under geometry i.
func (p *Profile) StoreFailRate(i int) float64 {
	return frac(p.Geoms[i].StoreFails, p.Stores)
}

// LoadFailRateNoRR excludes register+register-mode loads entirely.
func (p *Profile) LoadFailRateNoRR(i int) float64 {
	return frac(p.Geoms[i].LoadFailsNoRR, p.Loads-p.LoadsRR)
}

// StoreFailRateNoRR excludes register+register-mode stores entirely.
func (p *Profile) StoreFailRateNoRR(i int) float64 {
	return frac(p.Geoms[i].StoreFailsNoRR, p.Stores-p.StoresRR)
}

// LoadTypeShare returns the fraction of loads with the given reference type.
func (p *Profile) LoadTypeShare(rt RefType) float64 {
	return frac(p.LoadsByType[rt], p.Loads)
}

// CumulativeOffsetDist returns, for one reference type, the cumulative
// fraction of (non-negative) loads whose offset fits in <= k bits, for
// k = 0..32 — the paper's Figure 3 series.
func (p *Profile) CumulativeOffsetDist(rt RefType) [OffsetBuckets]float64 {
	var out [OffsetBuckets]float64
	total := p.LoadsByType[rt]
	if total == 0 {
		return out
	}
	var cum uint64
	for k := 0; k < OffsetBuckets; k++ {
		cum += p.LoadOffsetBits[rt][k]
		out[k] = float64(cum) / float64(total)
	}
	return out
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Run profiles a full program execution functionally.
func Run(p *prog.Program, maxInsts uint64, geoms ...fac.Config) (*Profile, *emu.Emulator, error) {
	e := emu.New(p)
	e.MaxInsts = maxInsts
	pr := New(geoms...)
	var tr emu.Trace
	for !e.Halted {
		if err := e.StepInto(&tr); err != nil {
			return &pr.P, e, err
		}
		pr.Note(&tr)
	}
	return &pr.P, e, nil
}
