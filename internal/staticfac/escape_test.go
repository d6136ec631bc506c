package staticfac

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
)

// TestRunStatesUnderFinalEscapes pins run's rerun: the states run returns
// must be those of a pass under the escape set that pass ends with. The
// difftest corpus program memlate.s first grows the escape set in the
// pass that settles the entry facts, in its second memory round, after a
// call earlier in that pass kept a slot the escape covers; every round of
// converge's fixpoint, replayed here, must then agree with a fresh pass
// under run's final hypothesis. The final report cannot show a converged
// pass kept without the rerun: converge runs another round whenever run
// grew the escape set (TestMemoryDomainCorpus pins that round).
func TestRunStatesUnderFinalEscapes(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "difftest", "testdata", "staticfac", "memlate.s"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Link(o, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	az := newAnalyzer(p)
	for round := 0; ; round++ {
		grew := az.env.esc.grew
		az.inv = az.invariant()
		states := az.run()
		if again, _ := az.flow(az.espFinal); !maps.Equal(again, states) {
			t.Fatalf("round %d: run's states differ from a pass under its final hypothesis and escape set", round)
		}
		if !az.env.commitEffects(az.collectEffects(states)) && az.env.esc.grew == grew {
			break
		}
		if round == maxMemRounds {
			t.Fatalf("no fixpoint in %d memory rounds", round)
		}
	}
}
