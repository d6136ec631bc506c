package predict

import (
	"math/rand"
	"testing"

	"repro/internal/fac"
	"repro/internal/staticfac"
)

func testGeom(t *testing.T) fac.Config {
	t.Helper()
	g := fac.Config{BlockBits: 5, SetBits: 14}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFACMachineBitExact: the wrapped FAC machine is the algebra of
// internal/fac, prediction for prediction — same address, same failure
// signals, always speculating — over a random operand sweep. This is the
// property the whole refactor rests on.
func TestFACMachineBitExact(t *testing.T) {
	g := testGeom(t)
	m, err := New("fac", Options{Geom: g})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		base, ofs := rng.Uint32(), rng.Uint32()
		if i%3 == 0 {
			ofs = uint32(int32(int16(ofs))) // sign-extended 16-bit constant shape
		}
		isReg := i%2 == 0
		want := g.Predict(base, ofs, isReg)
		got := m.Predict(uint32(0x400000+4*i), base, ofs, isReg)
		if !got.Spec || !got.Algebraic {
			t.Fatalf("fac machine must always speculate algebraically, got %+v", got)
		}
		if got.Addr != want.Predicted || got.Fail != want.Failure {
			t.Fatalf("predict(%#x,%#x,%v): got (%#x,%v) want (%#x,%v)",
				base, ofs, isReg, got.Addr, got.Fail, want.Predicted, want.Failure)
		}
		if (got.Fail == 0) != want.OK {
			t.Fatalf("Fail==0 must coincide with fac OK")
		}
	}
}

// TestPCAXLastAddress: cold entries decline, trained entries predict the
// last observed address, and a PC whose address changes every visit is
// always wrong — the alternating-base pattern the difftest seeds encode.
func TestPCAXLastAddress(t *testing.T) {
	m, err := New("pcax", Options{Entries: 64, TagBits: FullTags})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400100)
	if r := m.Predict(pc, 0, 0, false); r.Spec {
		t.Fatalf("cold entry predicted: %+v", r)
	}
	m.Train(pc, 0x1000)
	r := m.Predict(pc, 0, 0, false)
	if !r.Spec || r.Addr != 0x1000 || r.Algebraic {
		t.Fatalf("after training want non-algebraic guess of 0x1000, got %+v", r)
	}
	if r.Fail != fac.Failure(1)<<0 {
		t.Fatalf("pcax must charge slot 0, got %v", r.Fail)
	}
	// Same PC, different address each visit: the guess is always stale.
	wrong := 0
	addr := uint32(0x2000)
	for i := 0; i < 16; i++ {
		r := m.Predict(pc, 0, 0, false)
		if r.Spec && r.Addr != addr {
			wrong++
		}
		m.Train(pc, addr)
		addr += 0x40
	}
	if wrong != 16 {
		t.Fatalf("alternating addresses should defeat pcax every visit, wrong=%d", wrong)
	}
}

// TestPCAXTagConflict: two PCs mapping to the same entry with different
// tags evict each other, so each predicts at most its own history.
func TestPCAXTagConflict(t *testing.T) {
	m, err := New("pcax", Options{Entries: 4, TagBits: FullTags})
	if err != nil {
		t.Fatal(err)
	}
	a, b := uint32(0x400000), uint32(0x400000+4*4) // same index, different tag
	m.Train(a, 0x1000)
	if r := m.Predict(b, 0, 0, false); r.Spec {
		t.Fatalf("tag conflict must decline, got %+v", r)
	}
	m.Train(b, 0x2000)
	if r := m.Predict(a, 0, 0, false); r.Spec {
		t.Fatalf("evicted entry must decline, got %+v", r)
	}
	if r := m.Predict(b, 0, 0, false); !r.Spec || r.Addr != 0x2000 {
		t.Fatalf("resident entry must predict its own history, got %+v", r)
	}
}

// TestStrideWalk: a constant-stride walk trains to confident stride
// predictions charged to the stridebreak slot; breaking the stride is
// wrong exactly once per break.
func TestStrideWalk(t *testing.T) {
	m, err := New("stride", Options{Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400200)
	addr := uint32(0x10000000)
	for i := 0; i < 4; i++ { // warm: alloc + two stride confirms
		m.Train(pc, addr)
		addr += 8
	}
	for i := 0; i < 8; i++ {
		r := m.Predict(pc, 0, 0, false)
		if !r.Spec || r.Addr != addr {
			t.Fatalf("step %d: want confident stride guess %#x, got %+v", i, addr, r)
		}
		if r.Fail != fac.Failure(1)<<1 {
			t.Fatalf("stride-path guesses charge slot 1 (stridebreak), got %v", r.Fail)
		}
		m.Train(pc, addr)
		addr += 8
	}
	// Pointer-chase shape: addresses with no usable stride are mostly wrong.
	rng := rand.New(rand.NewSource(2))
	chasePC := uint32(0x400300)
	right, total := 0, 0
	for i := 0; i < 64; i++ {
		next := rng.Uint32() &^ 3
		if r := m.Predict(chasePC, 0, 0, false); r.Spec {
			total++
			if r.Addr == next {
				right++
			}
		}
		m.Train(chasePC, next)
	}
	if total == 0 || right > total/4 {
		t.Fatalf("random chase should defeat stride prediction: %d/%d correct", right, total)
	}
}

// TestSelectiveGating: proven-failing sites never speculate; all other
// verdicts predict exactly as the wrapped FAC machine.
func TestSelectiveGating(t *testing.T) {
	g := testGeom(t)
	base := uint32(0x400000)
	st := &StaticTable{
		textBase: base,
		verdicts: []staticfac.Verdict{
			staticfac.VerdictPredictable,
			staticfac.VerdictFailing,
			staticfac.VerdictUnknown,
		},
	}
	m, err := New("selective", Options{Geom: g, Static: st})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OperandBased() || m.Name() != "selective" {
		t.Fatalf("selective identity wrong")
	}
	operands := func(pc uint32) Result { return m.Predict(pc, 0x7fff1234, 0x10, false) }
	if r := operands(base + 4); r.Spec {
		t.Fatalf("proven-failing site speculated: %+v", r)
	}
	want := g.Predict(0x7fff1234, 0x10, false)
	for _, pc := range []uint32{base, base + 8, base + 12, base - 4} {
		r := operands(pc) // beyond-table PCs behave as unknown
		if !r.Spec || !r.Algebraic || r.Addr != want.Predicted || r.Fail != want.Failure {
			t.Fatalf("pc %#x: want plain FAC behaviour, got %+v", pc, r)
		}
	}
	if _, err := New("selective", Options{Geom: g}); err == nil {
		t.Fatal("selective without a static table must fail construction")
	}
}

// TestRegistry: every registered name constructs (selective given a
// table), reports itself, and stays within the fixed signal-slot budget;
// SignalNamesFor matches the constructed machine.
func TestRegistry(t *testing.T) {
	g := testGeom(t)
	st := &StaticTable{textBase: 0x400000, verdicts: make([]staticfac.Verdict, 4)}
	for _, name := range Names() {
		m, err := New(name, Options{Geom: g, Static: st})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("machine %q reports name %q", name, m.Name())
		}
		sig := m.SignalNames()
		if len(sig) == 0 || len(sig) > fac.NumFailureSignals {
			t.Fatalf("machine %q has %d signals, want 1..%d", name, len(sig), fac.NumFailureSignals)
		}
		reg := SignalNamesFor(name)
		if len(reg) != len(sig) {
			t.Fatalf("SignalNamesFor(%q) disagrees with machine", name)
		}
		for i := range sig {
			if sig[i] != reg[i] {
				t.Fatalf("SignalNamesFor(%q)[%d] = %q, machine says %q", name, i, reg[i], sig[i])
			}
		}
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Fatal("unknown machine must error")
	}
	if SignalNamesFor("bogus") != nil {
		t.Fatal("unknown machine must have nil signal names")
	}
}

// TestTableSizeRejected: a table size internal/ltb cannot index is an
// error from New, not a panic.
func TestTableSizeRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		o    Options
	}{
		{"pcax", Options{Entries: 1000}},
		{"stride", Options{TagBits: 31}},
	} {
		if _, err := New(c.name, c.o); err == nil {
			t.Errorf("New(%q, %+v) accepted", c.name, c.o)
		}
	}
}
