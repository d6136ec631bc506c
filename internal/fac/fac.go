// Package fac implements the paper's primary contribution: the fast address
// calculation predictor (Austin, Pnevmatikatos & Sohi, ISCA 1995, Section 3
// and Figure 4).
//
// The predictor produces (part of) a load/store effective address early
// enough to access an on-chip data cache in the same cycle as address
// generation. The set-index portion of the address is formed by carry-free
// addition — a single OR of the index fields of the base register and the
// offset — while a small full adder computes the block-offset bits and,
// optionally, a second adder computes the tag bits. A decoupled verification
// circuit detects the four failure conditions; on failure the access is
// replayed with the architectural address computed in parallel.
package fac

import "fmt"

// Failure is a bitmask of the verification circuit's failure signals
// (paper Section 3, conditions 1-4).
type Failure uint8

const (
	// FailOverflow: a carry (or, for negative constant offsets, a borrow)
	// propagates out of the block-offset portion of the address computation.
	FailOverflow Failure = 1 << iota
	// FailGenCarry: a carry is generated within the set-index portion
	// (carry-free OR differs from true addition). Without the optional tag
	// adder the same test covers the tag bits.
	FailGenCarry
	// FailLargeNegConst: a negative constant offset too large in magnitude
	// to land in the same cache block as the base address.
	FailLargeNegConst
	// FailNegIndexReg: a register offset with its sign bit set; register
	// operands arrive too late for set-index inversion, so negative index
	// registers conservatively fail (paper Section 3).
	FailNegIndexReg
)

// NumFailureSignals is the number of distinct verification failure
// signals; a Failure mask may raise several at once.
const NumFailureSignals = 4

// FailureSignals lists the individual signals in counter-index order
// (the order FailureSignalNames and CountInto use).
var FailureSignals = [NumFailureSignals]Failure{
	FailOverflow, FailGenCarry, FailLargeNegConst, FailNegIndexReg,
}

// FailureSignalNames names each signal, indexed as FailureSignals.
var FailureSignalNames = [NumFailureSignals]string{
	"overflow", "gencarry", "largenegconst", "negindexreg",
}

// CountInto increments one counter per raised signal in f; counts is
// indexed as FailureSignals. It is the aggregation primitive behind the
// per-kind failure breakdown in run statistics.
func (f Failure) CountInto(counts *[NumFailureSignals]uint64) {
	for i, sig := range FailureSignals {
		if f&sig != 0 {
			counts[i]++
		}
	}
}

func (f Failure) String() string {
	if f == 0 {
		return "ok"
	}
	s := ""
	for i, sig := range FailureSignals {
		if f&sig != 0 {
			if s != "" {
				s += "|"
			}
			s += FailureSignalNames[i]
		}
	}
	return s
}

// Config describes the cache geometry the predictor is built for.
// BlockBits is log2 of the cache block size (the span of the block-offset
// full adder); SetBits is log2 of the cache's direct-mapped span in bytes
// (block offset + set index fields together), e.g. 14 for a 16KB
// direct-mapped cache.
type Config struct {
	BlockBits uint
	SetBits   uint
	// TagAdder enables full addition in the tag portion of the effective
	// address computation (paper Section 3.1 discusses this variant and
	// finds it of limited value).
	TagAdder bool
}

// Validate reports whether the geometry is sensible.
func (c Config) Validate() error {
	if c.BlockBits < 2 || c.BlockBits > 12 {
		return fmt.Errorf("fac: BlockBits %d out of range [2,12]", c.BlockBits)
	}
	if c.SetBits <= c.BlockBits || c.SetBits > 28 {
		return fmt.Errorf("fac: SetBits %d must be in (BlockBits, 28]", c.SetBits)
	}
	return nil
}

// Result is the outcome of one prediction.
type Result struct {
	// Predicted is the speculative effective address presented to the
	// cache. Meaningful whether or not the prediction verified: the cache
	// is accessed with this address during the speculative cycle.
	Predicted uint32
	// OK reports that the verification circuit confirmed the prediction
	// (equivalently: Predicted equals the architectural effective address).
	OK bool
	// Failure carries the individual failure signals when !OK.
	Failure Failure
}

// Predict models one pass through the prediction and verification circuits.
// base is the base register value, ofs the (sign-extended) offset value, and
// isRegOffset distinguishes register+register addressing, whose offsets
// arrive too late for negative-offset handling. Post-increment addressing
// presents ofs == 0 (the access uses the base directly).
//
// Invariant: Result.OK implies Result.Predicted == base+ofs (mod 2^32).
func (c Config) Predict(base, ofs uint32, isRegOffset bool) Result {
	fail := c.Verify(base, ofs, isRegOffset)
	bm := uint32(1)<<c.BlockBits - 1 // block-offset mask
	blockOfs := (base + ofs) & bm    // the block-offset full adder
	negative := ofs&0x80000000 != 0

	var predicted uint32
	switch {
	case negative && isRegOffset:
		// The conservative path: the prediction presented the raw OR'd
		// address and is abandoned.
		predicted = (base|ofs)&^bm | blockOfs
	case negative:
		// Negative constant offset: the index (and tag) bits of the
		// sign-extended offset are all ones and are inverted to zero, so
		// the predicted address is the base's block with the adjusted
		// block offset.
		predicted = base&^bm | blockOfs
	case c.TagAdder:
		// Carry-free (OR) addition in the index field; the tag adder
		// computes base+ofs in the tag field with no carry-in, which is
		// exact whenever the index field neither generates nor receives a
		// carry, as verification already requires.
		sm := uint32(1)<<c.SetBits - 1 // block offset + index mask
		tag := (base >> c.SetBits) + (ofs >> c.SetBits)
		predicted = tag<<c.SetBits | (base|ofs)&sm&^bm | blockOfs
	default:
		// Carry-free (OR) addition in the index and tag fields.
		predicted = (base|ofs)&^bm | blockOfs
	}
	return Result{Predicted: predicted, OK: fail == 0, Failure: fail}
}

// Verify models the decoupled verification circuit alone: the failure
// signals raised for one access, with no predicted address formed.
// Predict's OK is Verify's zero mask, so a zero mask means Predict's
// address is base+ofs. Callers that need only the verdict, such as the
// reference profiler's per-geometry failure counts, call it instead of
// Predict.
func (c Config) Verify(base, ofs uint32, isRegOffset bool) Failure {
	bm := uint32(1)<<c.BlockBits - 1 // block-offset mask
	var fail Failure
	if base&bm+ofs&bm > bm { // the block-offset adder carries out
		fail = FailOverflow
	}
	if ofs&0x80000000 != 0 {
		if isRegOffset {
			// Register operands arrive too late for set-index inversion.
			return FailNegIndexReg
		}
		// A negative constant offset verifies only when the access stays
		// within the base's cache block: the offset's bits above the
		// block offset are all ones, and the block-offset add carries
		// (a borrow fails, so the overflow signal is the carry inverted).
		if ofs|bm != 0xFFFFFFFF {
			fail |= FailLargeNegConst
		}
		return fail ^ FailOverflow
	}
	// Non-negative offset: a carry out of the block-offset adder, or any
	// carry generated where the OR stands in for addition — the index
	// field, and the tag field too without the tag adder — fails.
	gen := base & ofs &^ bm // per-bit carry generates above the block offset
	if c.TagAdder {
		gen &= uint32(1)<<c.SetBits - 1
	}
	if gen != 0 {
		fail |= FailGenCarry
	}
	return fail
}

// Index extracts the set-index field of an address under this geometry.
func (c Config) Index(addr uint32) uint32 {
	return addr >> c.BlockBits & (1<<(c.SetBits-c.BlockBits) - 1)
}

// BlockOffset extracts the block-offset field of an address.
func (c Config) BlockOffset(addr uint32) uint32 {
	return addr & (1<<c.BlockBits - 1)
}

// Tag extracts the tag field of an address.
func (c Config) Tag(addr uint32) uint32 { return addr >> c.SetBits }
