package ltb

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := (Config{Entries: 1024}).Validate(); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, -4, 3, 1000} {
		if err := (Config{Entries: n}).Validate(); err == nil {
			t.Errorf("Entries=%d accepted", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(Config{Entries: 3})
}

func TestColdMiss(t *testing.T) {
	p := New(Config{Entries: 64})
	if _, ok := p.Predict(0x400000); ok {
		t.Error("cold entry predicted")
	}
	predicted, correct := p.Access(0x400000, 0x1000)
	if predicted || correct {
		t.Error("cold access counted as prediction")
	}
}

func TestLastAddressPolicy(t *testing.T) {
	p := New(Config{Entries: 64})
	pc := uint32(0x400010)
	p.Access(pc, 0x2000)
	// Same address repeats: last-address predicts it.
	if predicted, correct := p.Access(pc, 0x2000); !predicted || !correct {
		t.Error("repeated address not predicted")
	}
	// Strided walk: last-address is always one step behind.
	p2 := New(Config{Entries: 64})
	wrong := 0
	for i := 0; i < 10; i++ {
		if predicted, correct := p2.Access(pc, uint32(0x3000+i*4)); predicted && !correct {
			wrong++
		}
	}
	if wrong != 9 {
		t.Errorf("last-address mispredicted %d of 9 strided accesses", wrong)
	}
}

func TestStridePolicy(t *testing.T) {
	p := New(Config{Entries: 64, Stride: true})
	pc := uint32(0x400010)
	hits := 0
	for i := 0; i < 20; i++ {
		if _, correct := p.Access(pc, uint32(0x3000+i*8)); correct {
			hits++
		}
	}
	// After the stride is confirmed (a few accesses), every prediction hits.
	if hits < 15 {
		t.Errorf("stride predictor hit only %d of 20 strided accesses", hits)
	}
	// Random addresses defeat it.
	p2 := New(Config{Entries: 64, Stride: true})
	r := rand.New(rand.NewSource(9))
	hits = 0
	for i := 0; i < 200; i++ {
		if _, correct := p2.Access(pc, r.Uint32()&^3); correct {
			hits++
		}
	}
	if hits > 10 {
		t.Errorf("stride predictor hit %d of 200 random accesses", hits)
	}
}

func TestAliasing(t *testing.T) {
	p := New(Config{Entries: 16})
	pcA := uint32(0x400000)
	pcB := pcA + 16*4 // same index, different tag
	p.Access(pcA, 0x1000)
	if _, ok := p.Predict(pcB); ok {
		t.Error("aliased entry predicted for wrong tag")
	}
	p.Access(pcB, 0x2000) // replaces A
	if _, ok := p.Predict(pcA); ok {
		t.Error("A survived replacement")
	}
}

func TestStats(t *testing.T) {
	p := New(Config{Entries: 64})
	pc := uint32(0x400020)
	p.Access(pc, 0x1000) // cold
	p.Access(pc, 0x1000) // hit, correct
	p.Access(pc, 0x2000) // hit, wrong
	lookups, predicted, correct := p.Stats()
	if lookups != 3 || predicted != 2 || correct != 1 {
		t.Errorf("stats = %d/%d/%d", lookups, predicted, correct)
	}
	if p.Accuracy() != 1.0/3 || p.Coverage() != 2.0/3 {
		t.Errorf("accuracy %v coverage %v", p.Accuracy(), p.Coverage())
	}
	var empty Predictor
	if empty.Accuracy() != 0 || empty.Coverage() != 0 {
		t.Error("empty predictor rates not zero")
	}
}

// Property: the stride predictor eventually locks onto any constant stride.
func TestStrideLockProperty(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		p := New(Config{Entries: 64, Stride: true})
		pc := uint32(0x400000 + r.Intn(64)*4)
		stride := uint32(r.Intn(64) * 4)
		base := r.Uint32() &^ 3
		// Warm up, then the tail must predict perfectly.
		for i := 0; i < 5; i++ {
			p.Access(pc, base+uint32(i)*stride)
		}
		for i := 5; i < 15; i++ {
			if _, correct := p.Access(pc, base+uint32(i)*stride); !correct {
				t.Fatalf("trial %d: stride %d not locked at access %d", trial, stride, i)
			}
		}
	}
}

// TestAccessIsLookupThenUpdate: Access indexes the table once, and must
// behave exactly as Lookup followed by Update on a twin table, access by
// access, for both policies, with full and partial tags. The stream
// mixes strided, repeating and random addresses over more loads than
// the table has entries, so entries conflict, alias and retrain.
func TestAccessIsLookupThenUpdate(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 64},
		{Entries: 64, Stride: true},
		{Entries: 64, TagBits: 3},
		{Entries: 64, Stride: true, TagBits: 3},
	} {
		a, twin := New(cfg), New(cfg)
		rng := rand.New(rand.NewSource(7))
		next := map[uint32]uint32{}
		var hits, correct uint64
		for i := 0; i < 200000; i++ {
			pc := 0x400000 + 4*uint32(rng.Intn(300))
			var actual uint32
			switch pc % 3 {
			case 0: // an array walk
				actual = next[pc]
				next[pc] = actual + 4*uint32(1+pc%5)
			case 1: // a fixed address, with an occasional detour
				actual = pc << 4
				if rng.Intn(8) == 0 {
					actual += 64
				}
			default: // no pattern
				actual = rng.Uint32() &^ 3
			}
			want, _, ok := twin.Lookup(pc)
			twin.Update(pc, actual)
			gotPred, gotCorrect := a.Access(pc, actual)
			if gotPred != ok || gotCorrect != (ok && want == actual) {
				t.Fatalf("%+v access %d (pc %#x, addr %#x): Access = %v/%v, Lookup+Update = %v/%v",
					cfg, i, pc, actual, gotPred, gotCorrect, ok, ok && want == actual)
			}
			if ok {
				hits++
				if want == actual {
					correct++
				}
			}
		}
		if l, h, c := a.Stats(); l != 200000 || h != hits || c != correct {
			t.Errorf("%+v: Stats = %d/%d/%d, want 200000/%d/%d", cfg, l, h, c, hits, correct)
		}
		if !reflect.DeepEqual(a.entries, twin.entries) {
			t.Errorf("%+v: tables differ after the stream", cfg)
		}
		if correct == 0 || hits == correct || hits == 200000 {
			t.Errorf("%+v: stream too one-sided: %d predicted, %d correct", cfg, hits, correct)
		}
	}
}
