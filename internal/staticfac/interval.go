package staticfac

import (
	"fmt"
	"math"
	"math/bits"
)

// Interval is an unsigned value-range abstract value for a 32-bit register:
// the set of concrete values v with Lo() <= v <= Hi(). It complements the
// known-bits domain (KB): KB proves bit patterns (alignment, masked fields)
// while Interval proves magnitude bounds (loop-guard limits on array
// indices), and the two refine each other — step clamps every interval to
// the KB-consistent range, and site classification folds an interval's
// common-prefix bits back into KB (see KB.Refine).
//
// The upper bound is stored complemented so the zero value is the full
// range [0, 0xFFFFFFFF] (top), mirroring KB whose zero value is Unknown:
// a forgotten initialization degrades precision instead of soundness.
type Interval struct {
	lo    uint32
	notHi uint32
}

// IvRange returns the interval [lo, hi]; it panics if lo > hi (an empty
// interval is never a value — Meet reports emptiness out of band).
func IvRange(lo, hi uint32) Interval {
	if lo > hi {
		panic(fmt.Sprintf("staticfac: empty interval [%#x, %#x]", lo, hi))
	}
	return Interval{lo: lo, notHi: ^hi}
}

// IvExact abstracts a single concrete value.
func IvExact(v uint32) Interval { return Interval{lo: v, notHi: ^v} }

// IvTop is the full range (also the zero value).
var IvTop = Interval{}

// Lo returns the inclusive lower bound.
func (i Interval) Lo() uint32 { return i.lo }

// Hi returns the inclusive upper bound.
func (i Interval) Hi() uint32 { return ^i.notHi }

// IsTop reports whether the interval is the full range.
func (i Interval) IsTop() bool { return i == IvTop }

// IsExact reports whether the interval holds a single value.
func (i Interval) IsExact() bool { return i.lo == ^i.notHi }

// Contains reports whether the concrete value v is in the interval.
func (i Interval) Contains(v uint32) bool { return v >= i.Lo() && v <= i.Hi() }

// Join returns the convex hull (the merge at control-flow joins).
func (i Interval) Join(o Interval) Interval {
	return IvRange(min(i.Lo(), o.Lo()), max(i.Hi(), o.Hi()))
}

// Meet intersects two intervals; ok is false when the intersection is
// empty (the domains contradict, or a branch edge is infeasible).
func (i Interval) Meet(o Interval) (Interval, bool) {
	lo, hi := max(i.Lo(), o.Lo()), min(i.Hi(), o.Hi())
	if lo > hi {
		return IvTop, false
	}
	return IvRange(lo, hi), true
}

// WidenTo accelerates convergence of an ascending chain: any bound of
// next that moved past the corresponding bound of i first snaps to the
// nearest enclosing threshold (ts must be ascending, all below 2^31 —
// see collectThresholds), then jumps outward to the sign boundary and
// last to the extreme. Callers pass next already joined with i (next
// covers i, as at every fixpoint update site), so covering next covers
// both. Snapping to the program's own comparison constants lets a
// loop-guard fixpoint stabilize at the real loop bound instead of
// overshooting it: the ascending chain of a counter tested against n
// settles at [0, n] in a handful of rounds, and the guard edge then
// narrows it to [0, n-1] for the loop body. The sign boundary matters
// too: a counter widened to [0, MaxInt32] still has a definite sign, so
// the signed loop-guard narrowing below the loop head (refineEdges +
// MeetSignedOK) can recover a tight bound, whereas a full-range interval
// straddles the sign boundary and signed facts select two pieces whose
// hull is the full range again.
func (i Interval) WidenTo(next Interval, ts []uint32) Interval {
	lo, hi := next.Lo(), next.Hi()
	if lo < i.Lo() {
		switch {
		case lo >= 1<<31:
			lo = 1 << 31
		default:
			lo = thresholdBelow(ts, lo)
		}
	}
	if hi > i.Hi() {
		switch {
		case hi < 1<<31:
			hi = thresholdAbove(ts, hi)
		default:
			hi = math.MaxUint32
		}
	}
	return IvRange(lo, hi)
}

// thresholdAbove returns the smallest threshold >= v, or MaxInt32 (the
// sign boundary keeps signed guard narrowing effective; see WidenTo).
func thresholdAbove(ts []uint32, v uint32) uint32 {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ts) {
		return ts[lo]
	}
	return math.MaxInt32
}

// thresholdBelow returns the largest threshold <= v, or 0.
func thresholdBelow(ts []uint32, v uint32) uint32 {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		return ts[lo-1]
	}
	return 0
}

// Add returns a sound abstraction of 32-bit wrapping addition: exact
// interval arithmetic when the result set stays contiguous modulo 2^32
// (neither or both endpoint sums wrap), top when it straddles the wrap.
func (i Interval) Add(o Interval) Interval {
	lo := uint64(i.Lo()) + uint64(o.Lo())
	hi := uint64(i.Hi()) + uint64(o.Hi())
	const m = uint64(1) << 32
	switch {
	case hi < m:
		return IvRange(uint32(lo), uint32(hi))
	case lo >= m:
		return IvRange(uint32(lo-m), uint32(hi-m))
	}
	return IvTop
}

// Sub returns a sound abstraction of 32-bit wrapping subtraction.
func (i Interval) Sub(o Interval) Interval {
	lo := int64(i.Lo()) - int64(o.Hi())
	hi := int64(i.Hi()) - int64(o.Lo())
	const m = int64(1) << 32
	switch {
	case lo >= 0:
		return IvRange(uint32(lo), uint32(hi))
	case hi < 0:
		return IvRange(uint32(lo+m), uint32(hi+m))
	}
	return IvTop
}

// Shl abstracts a left shift by a known amount (top once the upper bound
// would wrap).
func (i Interval) Shl(n uint) Interval {
	n &= 31
	if hi := uint64(i.Hi()) << n; hi <= math.MaxUint32 {
		return IvRange(i.Lo()<<n, uint32(hi))
	}
	return IvTop
}

// Shr abstracts a logical right shift by a known amount (monotone, always
// exact on the bounds).
func (i Interval) Shr(n uint) Interval {
	n &= 31
	return IvRange(i.Lo()>>n, i.Hi()>>n)
}

// Sar abstracts an arithmetic right shift by a known amount. The shift is
// monotone on each signed half of the unsigned number line, so the bounds
// map directly unless the interval straddles the sign boundary.
func (i Interval) Sar(n uint) Interval {
	n &= 31
	sar := func(v uint32) uint32 { return uint32(int32(v) >> n) }
	if lo, hi := i.Lo(), i.Hi(); lo >= 1<<31 || hi < 1<<31 {
		return IvRange(sar(lo), sar(hi))
	}
	return IvTop
}

// AndUpper bounds a bitwise AND: the result never exceeds either operand,
// so [0, min(Hi, o.Hi)] always contains it. (Exact bit tracking is KB's
// job; this keeps magnitude facts through masking idioms like `andi`.)
func (i Interval) AndUpper(o Interval) Interval {
	return IvRange(0, min(i.Hi(), o.Hi()))
}

// ReduceKB clamps the interval to the range consistent with a known-bits
// value (every value represented by k lies in [k.Ones, ^k.Zeros]). An
// empty intersection means the two domains contradict — possible only on
// dataflow-unreachable paths — and resolves in KB's favour.
func (i Interval) ReduceKB(k KB) Interval {
	if m, ok := i.Meet(k.Range()); ok {
		return m
	}
	return k.Range()
}

// signedRange returns a signed bound [a, b] covering every member of the
// interval under int32 interpretation. Within either signed half the
// unsigned order matches the signed order; an interval straddling the sign
// boundary covers values on both sides and degrades to the full range.
func (i Interval) signedRange() (int64, int64) {
	lo, hi := i.Lo(), i.Hi()
	if lo < 1<<31 && hi >= 1<<31 {
		return math.MinInt32, math.MaxInt32
	}
	return int64(int32(lo)), int64(int32(hi))
}

// MeetSignedOK narrows the interval to members whose int32 interpretation
// lies in [a, b] and reports whether any member survives. The signed
// range maps to at most two unsigned pieces (non-negative values, then
// negative values high in the unsigned line); the result is the hull of
// the non-empty piecewise meets. ok == false means the meet is empty —
// the branch edge demanding it is infeasible.
func (i Interval) MeetSignedOK(a, b int64) (Interval, bool) {
	if a > b {
		return i, false
	}
	a, b = max(a, math.MinInt32), min(b, math.MaxInt32)
	var pieces []Interval
	if b >= 0 { // non-negative piece [max(a,0), b]
		pieces = append(pieces, IvRange(uint32(max(a, 0)), uint32(b)))
	}
	if a < 0 { // negative piece [2^32+a, 2^32+min(b,-1)]
		const m = int64(1) << 32
		pieces = append(pieces, IvRange(uint32(m+a), uint32(m+min(b, -1))))
	}
	out, any := IvTop, false
	for _, p := range pieces {
		if met, ok := i.Meet(p); ok {
			if any {
				out = out.Join(met)
			} else {
				out, any = met, true
			}
		}
	}
	if !any {
		return i, false
	}
	return out, true
}

// String renders the interval as =value, [lo, hi], or T for top.
func (i Interval) String() string {
	switch {
	case i.IsTop():
		return "T"
	case i.IsExact():
		return fmt.Sprintf("=%#x", i.Lo())
	}
	return fmt.Sprintf("[%#x, %#x]", i.Lo(), i.Hi())
}

// Range returns the interval of values consistent with a known-bits value:
// the minimum sets only the proven-one bits, the maximum additionally sets
// every unknown bit.
func (k KB) Range() Interval { return IvRange(k.Ones, ^k.Zeros) }

// Refine folds an interval's common-prefix bits into a known-bits value:
// every member of [lo, hi] agrees with lo on the bits above the highest
// bit where lo and hi differ. This is how magnitude bounds become bit
// facts at classification time — an index proven to lie in [0, n] has all
// bits above n's leading bit proven zero, which rules out carry conflicts
// with a base register's high fields. A contradictory merge (possible only
// on dataflow-unreachable paths) leaves k unchanged.
func (k KB) Refine(iv Interval) KB {
	lo, hi := iv.Lo(), iv.Hi()
	diff := lo ^ hi
	mask := ^uint32(0)
	if diff != 0 {
		mask = ^(^uint32(0) >> bits.LeadingZeros32(diff))
	}
	out := KB{Zeros: k.Zeros | mask&^lo, Ones: k.Ones | mask&lo}
	if out.Zeros&out.Ones != 0 {
		return k
	}
	return out
}
