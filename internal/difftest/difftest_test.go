package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

// TestRandomTraceWellFormed pins the generator's contract: PC chaining
// through redirects, EffAddr == Base+Offset under every mode, and actual
// coverage of the speculative paths the old pipeline generator missed —
// taken branches, post-increment, and reg+reg addressing.
func TestRandomTraceWellFormed(t *testing.T) {
	trs := RandomTrace(rand.New(rand.NewSource(7)), 20000)
	if len(trs) != 20000 {
		t.Fatalf("got %d traces, want 20000", len(trs))
	}
	var taken, post, regreg, negIdx uint64
	for i, tr := range trs {
		if i+1 < len(trs) && trs[i+1].PC != tr.NextPC {
			t.Fatalf("trace %d: NextPC %#x but successor PC %#x", i, tr.NextPC, trs[i+1].PC)
		}
		if !tr.Inst.Op.IsControl() && tr.NextPC != tr.PC+isa.InstBytes {
			t.Fatalf("trace %d: non-control %v redirects %#x -> %#x", i, tr.Inst, tr.PC, tr.NextPC)
		}
		if tr.Inst.Op.IsMem() {
			want := tr.Base + tr.Offset
			if tr.Inst.Op.Mode() == isa.AMPost {
				want = tr.Base
				if tr.Offset != 0 {
					t.Fatalf("trace %d: post-increment with nonzero Offset %#x", i, tr.Offset)
				}
			}
			if tr.EffAddr != want {
				t.Fatalf("trace %d: %v EffAddr %#x != Base+Offset %#x", i, tr.Inst, tr.EffAddr, want)
			}
			if (tr.Inst.Op.Mode() == isa.AMReg) != tr.IsRegOffset {
				t.Fatalf("trace %d: %v IsRegOffset=%v", i, tr.Inst, tr.IsRegOffset)
			}
			switch tr.Inst.Op.Mode() {
			case isa.AMPost:
				post++
			case isa.AMReg:
				regreg++
				if tr.Offset&0x80000000 != 0 {
					negIdx++
				}
			}
		}
		if tr.Inst.Op.IsBranch() && tr.Taken {
			taken++
		}
	}
	if taken == 0 || post == 0 || regreg == 0 || negIdx == 0 {
		t.Fatalf("generator missed a speculative path: taken=%d post=%d regreg=%d negIdx=%d",
			taken, post, regreg, negIdx)
	}
}

// TestTraceOracle runs the full machine set over generated streams with
// the event-stream checker attached; any invariant violation in the
// timing model, the predictor, or the stall accounting fails here without
// needing the fuzzing engine.
func TestTraceOracle(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	for seed := int64(0); seed < int64(n); seed++ {
		trs := RandomTrace(rand.New(rand.NewSource(seed)), 3000)
		if err := RunTrace(trs, Machines()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEmptyTrace pins the degenerate case: a zero-length stream still
// satisfies the partition invariants.
func TestEmptyTrace(t *testing.T) {
	if err := RunTrace(nil, Machines()); err != nil {
		t.Fatal(err)
	}
}

// TestOracleDetectsCorruption proves the checker has teeth: divorcing
// EffAddr from Base+Offset breaks the verified-prediction invariant, and
// a FAC machine must report it.
func TestOracleDetectsCorruption(t *testing.T) {
	trs := RandomTrace(rand.New(rand.NewSource(3)), 3000)
	corrupted := false
	for i := range trs {
		if trs[i].Inst.Op.IsLoad() && !trs[i].IsRegOffset && trs[i].Inst.Op.Mode() != isa.AMPost {
			trs[i].EffAddr += 1 << 20 // leaves block offset intact, breaks the address
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("trace has no constant-offset loads to corrupt")
	}
	var facMachines []Machine
	for _, m := range Machines() {
		if m.Cfg.Predictor == "fac" {
			facMachines = append(facMachines, m)
		}
	}
	if err := RunTrace(trs, facMachines); err == nil {
		t.Fatal("oracle accepted a corrupted trace")
	}
}

// TestMachinesValid ensures every oracle machine is a valid pipeline
// configuration.
func TestMachinesValid(t *testing.T) {
	for _, m := range Machines() {
		if err := m.Cfg.Validate(); err != nil {
			t.Errorf("machine %s: %v", m.Name, err)
		}
	}
}

// chaseSeedSrc walks an 8-cycle permutation: each load's address is the
// value of the previous load, with no two consecutive equal deltas, so
// neither a last-address nor a two-delta stride table can ever guess the
// next address. This is the canonical stride-prediction-defeating shape.
const chaseSeedSrc = `
.data
perm:	.word 5, 7, 6, 4, 0, 1, 3, 2

.text
main:
	la $t0, perm
	li $t1, 0
	li $t2, 64
chase:
	sll $t3, $t1, 2
	add $t3, $t3, $t0
	lw $t1, 0($t3)
	addi $t2, $t2, -1
	bgtz $t2, chase
	jr $ra
`

// alternateSeedSrc issues one static load whose base register toggles
// between two arrays every iteration, so a PC-indexed last-address table
// is wrong on every visit after the first — the canonical PC-indexed-
// prediction-defeating shape. The paired store exercises the store-side
// accounting under the same pattern.
const alternateSeedSrc = `
.data
a:	.space 64
b:	.space 64

.text
main:
	la $t0, a
	la $t1, b
	xor $t5, $t0, $t1
	li $t2, 64
flip:
	lw $t3, 0($t0)
	sw $t3, 4($t0)
	xor $t0, $t0, $t5
	addi $t2, $t2, -1
	bgtz $t2, flip
	jr $ra
`

// buildAsm assembles and links a hand-written seed program.
func buildAsm(t *testing.T, src string) *prog.Program {
	t.Helper()
	o, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("seed program does not assemble: %v", err)
	}
	p, err := prog.Link(o, prog.DefaultConfig())
	if err != nil {
		t.Fatalf("seed program does not link: %v", err)
	}
	return p
}

// TestAdversarialSeeds replays the committed predictor-defeating programs
// through the full oracle (all machines, event-stream checker, static
// oracle) and then pins that they really do defeat their target machine:
// accounting must stay consistent even when nearly every guess is wrong.
func TestAdversarialSeeds(t *testing.T) {
	seeds := []struct {
		name, src, victim string
	}{
		{"pointer-chase", chaseSeedSrc, "stride"},
		{"alternating-base", alternateSeedSrc, "pcax"},
	}
	machineByName := make(map[string]Machine)
	for _, m := range Machines() {
		machineByName[m.Name] = m
	}
	for _, s := range seeds {
		p := buildAsm(t, s.src)
		if err := Run(p, 1_000_000); err != nil {
			t.Fatalf("%s: oracle failed: %v", s.name, err)
		}
		m, ok := machineByName[s.victim]
		if !ok {
			t.Fatalf("machine %q missing from the oracle set", s.victim)
		}
		e := emu.New(p)
		e.MaxInsts = 1_000_000
		st, err := pipeline.RunObserved(m.Cfg, emuSource{e}, nil)
		if err != nil {
			t.Fatalf("%s on %s: %v", s.name, s.victim, err)
		}
		if st.LoadsSpeculated == 0 {
			t.Fatalf("%s: %s machine never speculated a load", s.name, s.victim)
		}
		if 2*st.LoadSpecFailed < st.LoadsSpeculated {
			t.Fatalf("%s should defeat %s: only %d/%d speculated loads failed",
				s.name, s.victim, st.LoadSpecFailed, st.LoadsSpeculated)
		}
	}
}

// TestMiniCOracle runs a few whole-stack differential checks directly, so
// the plain test suite exercises the program-level oracle.
func TestMiniCOracle(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 1
	}
	for seed := int64(100); seed < int64(100+n); seed++ {
		src := RandomMiniC(rand.New(rand.NewSource(seed)))
		p := buildMiniC(t, src, minic.BaseOptions(), prog.DefaultConfig())
		if err := Run(p, 2_000_000); err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
	}
}
