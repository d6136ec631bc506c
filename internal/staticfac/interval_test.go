package staticfac

import (
	"math"
	"math/rand"
	"testing"
)

func TestIntervalBasics(t *testing.T) {
	if !IvTop.IsTop() || IvTop.Lo() != 0 || IvTop.Hi() != math.MaxUint32 {
		t.Fatalf("zero value must be top, got %v", IvTop)
	}
	var zero Interval
	if zero != IvTop {
		t.Fatalf("zero-value Interval is not top: %v", zero)
	}
	e := IvExact(0x40)
	if !e.IsExact() || e.Lo() != 0x40 || e.Hi() != 0x40 || !e.Contains(0x40) || e.Contains(0x41) {
		t.Fatalf("IvExact broken: %v", e)
	}
	r := IvRange(3, 9)
	if r.IsExact() || !r.Contains(3) || !r.Contains(9) || r.Contains(2) || r.Contains(10) {
		t.Fatalf("IvRange broken: %v", r)
	}
}

func TestIntervalJoinMeet(t *testing.T) {
	a, b := IvRange(0, 10), IvRange(5, 20)
	if j := a.Join(b); j.Lo() != 0 || j.Hi() != 20 {
		t.Fatalf("Join = %v", j)
	}
	if m, ok := a.Meet(b); !ok || m.Lo() != 5 || m.Hi() != 10 {
		t.Fatalf("Meet = %v ok=%v", m, ok)
	}
	if _, ok := IvRange(0, 4).Meet(IvRange(5, 9)); ok {
		t.Fatal("disjoint Meet reported non-empty")
	}
}

func TestIntervalAddSub(t *testing.T) {
	a, b := IvRange(10, 20), IvRange(1, 2)
	if s := a.Add(b); s.Lo() != 11 || s.Hi() != 22 {
		t.Fatalf("Add = %v", s)
	}
	if s := a.Sub(b); s.Lo() != 8 || s.Hi() != 19 {
		t.Fatalf("Sub = %v", s)
	}
	// Both endpoint sums wrap: result is contiguous mod 2^32 and stays exact.
	w := IvExact(math.MaxUint32).Add(IvRange(2, 3))
	if w.Lo() != 1 || w.Hi() != 2 {
		t.Fatalf("wrapping Add = %v", w)
	}
	// Straddles the wrap: must degrade to top, never to a wrong range.
	if s := IvRange(math.MaxUint32-1, math.MaxUint32).Add(IvRange(0, 5)); !s.IsTop() {
		t.Fatalf("straddling Add = %v, want top", s)
	}
	if s := IvRange(0, 5).Sub(IvExact(3)); !s.IsTop() {
		t.Fatalf("straddling Sub = %v, want top", s)
	}
}

func TestIntervalShifts(t *testing.T) {
	if s := IvRange(1, 5).Shl(3); s.Lo() != 8 || s.Hi() != 40 {
		t.Fatalf("Shl = %v", s)
	}
	if s := IvRange(0, 1<<30).Shl(2); !s.IsTop() {
		t.Fatalf("overflowing Shl = %v, want top", s)
	}
	if s := IvRange(8, 40).Shr(3); s.Lo() != 1 || s.Hi() != 5 {
		t.Fatalf("Shr = %v", s)
	}
	if s := IvExact(0xFFFF_FFF0).Sar(4); !s.IsExact() || s.Lo() != 0xFFFF_FFFF {
		t.Fatalf("negative Sar = %v", s)
	}
	// Sign-straddling Sar is not monotone on the unsigned line.
	if s := IvRange(1<<31-1, 1<<31).Sar(1); !s.IsTop() {
		t.Fatalf("straddling Sar = %v, want top", s)
	}
}

func TestIntervalWidenThresholds(t *testing.T) {
	ts := []uint32{15, 16, 63, 64, 511, 512}
	// A bound creeping past 16 snaps to the next program threshold, 63.
	w := IvRange(0, 16).WidenTo(IvRange(0, 17), ts)
	if w.Lo() != 0 || w.Hi() != 63 {
		t.Fatalf("threshold widen = %v, want [0, 63]", w)
	}
	// Past the last threshold: the sign boundary, keeping signed narrowing
	// effective, then the extreme.
	w = IvRange(0, 512).WidenTo(IvRange(0, 513), ts)
	if w.Hi() != math.MaxInt32 {
		t.Fatalf("post-threshold widen hi = %#x, want MaxInt32", w.Hi())
	}
	w = IvRange(0, math.MaxInt32).WidenTo(IvRange(0, math.MaxInt32+1), ts)
	if w.Hi() != math.MaxUint32 {
		t.Fatalf("final widen hi = %#x, want MaxUint32", w.Hi())
	}
	// A lower bound moving down snaps to the largest threshold below it.
	w = IvRange(64, 100).WidenTo(IvRange(20, 100), ts)
	if w.Lo() != 16 {
		t.Fatalf("lower threshold widen lo = %d, want 16", w.Lo())
	}
	// Stable bounds never move.
	w = IvRange(3, 40).WidenTo(IvRange(3, 40), ts)
	if w.Lo() != 3 || w.Hi() != 40 {
		t.Fatalf("stable widen = %v", w)
	}
}

func TestIntervalWidenCovers(t *testing.T) {
	// Widening must always cover its inputs (soundness of the accelerated
	// fixpoint); WidenTo's contract has next pre-joined with prev, as at
	// every fixpoint update site.
	rng := rand.New(rand.NewSource(11))
	ts := []uint32{7, 64, 1000, 65535}
	for n := 0; n < 2000; n++ {
		a := rng.Uint32()
		b := a + rng.Uint32()%(math.MaxUint32-a+1)
		c := rng.Uint32()
		d := c + rng.Uint32()%(math.MaxUint32-c+1)
		prev := IvRange(a, b)
		next := prev.Join(IvRange(c, d))
		w := prev.WidenTo(next, ts)
		if w.Lo() > next.Lo() || w.Hi() < next.Hi() {
			t.Fatalf("WidenTo(%v, %v) = %v does not cover next", prev, next, w)
		}
		if w.Lo() > prev.Lo() || w.Hi() < prev.Hi() {
			t.Fatalf("WidenTo(%v, %v) = %v does not cover prev", prev, next, w)
		}
	}
}

func TestIntervalMeetSigned(t *testing.T) {
	meet := func(iv Interval, a, b int64) Interval {
		t.Helper()
		m, ok := iv.MeetSignedOK(a, b)
		if !ok {
			t.Fatalf("MeetSignedOK(%v, [%d, %d]) is empty", iv, a, b)
		}
		return m
	}
	// Non-negative constraint on a full range keeps the non-negative half.
	m := meet(IvTop, 0, math.MaxInt32)
	if m.Lo() != 0 || m.Hi() != math.MaxInt32 {
		t.Fatalf("MeetSignedOK(T, >=0) = %v", m)
	}
	// Negative constraint selects the high unsigned piece.
	m = meet(IvTop, math.MinInt32, -1)
	if m.Lo() != 1<<31 || m.Hi() != math.MaxUint32 {
		t.Fatalf("MeetSignedOK(T, <0) = %v", m)
	}
	// A bounded counter meets a loop-guard upper bound.
	m = meet(IvRange(0, 1000), 0, 63)
	if m.Lo() != 0 || m.Hi() != 63 {
		t.Fatalf("guard meet = %v", m)
	}
	// An empty meet (infeasible edge) reports emptiness and leaves the
	// interval unchanged.
	if m, ok := IvRange(100, 200).MeetSignedOK(0, 50); ok || m != IvRange(100, 200) {
		t.Fatalf("empty MeetSignedOK = %v, %v; want the interval unchanged, false", m, ok)
	}
	// Exhaustive small-domain check against concrete int32 semantics.
	for lo := -4; lo <= 4; lo++ {
		for hi := lo; hi <= 4; hi++ {
			if lo < 0 && hi >= 0 {
				continue // not representable as one unsigned interval
			}
			iv := IvRange(uint32(int32(lo)), uint32(int32(hi)))
			m, ok := iv.MeetSignedOK(-2, 2)
			for v := lo; v <= hi; v++ {
				in := v >= -2 && v <= 2
				if in && (!ok || !m.Contains(uint32(int32(v)))) {
					t.Fatalf("MeetSignedOK([%d,%d], [-2,2]) = %v, %v dropped %d", lo, hi, m, ok, v)
				}
			}
		}
	}
}

func TestIntervalReduceRefine(t *testing.T) {
	// KB proves 8-alignment; the interval caps the magnitude. Reduction
	// clamps the interval to the KB-consistent range.
	k := KB{Zeros: 0x7} // low 3 bits zero
	iv := IvRange(3, 100).ReduceKB(k)
	if iv.Lo() != 3 || iv.Hi() != 100 {
		t.Fatalf("ReduceKB = %v", iv)
	}
	if got := IvTop.ReduceKB(Exact(0x40)); !got.IsExact() || got.Lo() != 0x40 {
		t.Fatalf("ReduceKB(exact) = %v", got)
	}
	// Refine folds the common prefix of the bounds into known bits: every
	// member of [0, 63] has bits 6..31 proven zero.
	out := KB{}.Refine(IvRange(0, 63))
	if out.Zeros != ^uint32(63) || out.Ones != 0 {
		t.Fatalf("Refine([0,63]) = zeros %#x ones %#x", out.Zeros, out.Ones)
	}
	// An exact interval refines to a fully known value.
	out = KB{}.Refine(IvExact(0x1234))
	if !out.IsExact() || out.Ones != 0x1234 {
		t.Fatalf("Refine(exact) = zeros %#x ones %#x", out.Zeros, out.Ones)
	}
	// A contradictory merge (unreachable-path artifact) must not corrupt KB.
	k = Exact(0xFF)
	if got := k.Refine(IvExact(0x100)); got != k {
		t.Fatalf("contradictory Refine changed KB: %v", got)
	}
}

func TestIntervalOpsSoundRandom(t *testing.T) {
	// Property test: for random intervals and random members, every
	// abstract operation's result contains the concrete result.
	rng := rand.New(rand.NewSource(23))
	mk := func() (Interval, uint32) {
		lo := rng.Uint32()
		hi := lo + rng.Uint32()%(math.MaxUint32-lo+1)
		v := lo + rng.Uint32()%(hi-lo+1)
		return IvRange(lo, hi), v
	}
	for n := 0; n < 20000; n++ {
		a, x := mk()
		b, y := mk()
		sh := uint(rng.Intn(32))
		if got := a.Add(b); !got.Contains(x + y) {
			t.Fatalf("%v.Add(%v) = %v misses %#x+%#x", a, b, got, x, y)
		}
		if got := a.Sub(b); !got.Contains(x - y) {
			t.Fatalf("%v.Sub(%v) = %v misses %#x-%#x", a, b, got, x, y)
		}
		if got := a.Shl(sh); !got.Contains(x << sh) {
			t.Fatalf("%v.Shl(%d) = %v misses %#x", a, sh, got, x)
		}
		if got := a.Shr(sh); !got.Contains(x >> sh) {
			t.Fatalf("%v.Shr(%d) = %v misses %#x", a, sh, got, x)
		}
		if got := a.Sar(sh); !got.Contains(uint32(int32(x) >> sh)) {
			t.Fatalf("%v.Sar(%d) = %v misses %#x", a, sh, got, x)
		}
		if got := a.AndUpper(b); !got.Contains(x & y) {
			t.Fatalf("%v.AndUpper(%v) = %v misses %#x&%#x", a, b, got, x, y)
		}
		if got := a.Join(b); !got.Contains(x) || !got.Contains(y) {
			t.Fatalf("%v.Join(%v) = %v misses a member", a, b, got)
		}
		if m, ok := a.Meet(b); ok && a.Contains(y) && b.Contains(y) && !m.Contains(y) {
			t.Fatalf("%v.Meet(%v) = %v misses common member %#x", a, b, m, y)
		}
	}
}
