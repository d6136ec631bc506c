package difftest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/staticfac"
)

var updateMemGoldens = flag.Bool("update", false, "rewrite memory-domain golden reports")

// TestMemoryDomainCorpus drives the four memory-domain microbenchmarks
// through the full differential oracle (which includes the value-soundness
// cross-check on every FAC machine), asserts the sharp static claims
// directly, and pins each program's fac/static/v1 report against a golden
// file (refresh with -update).
//
//   - memglobal.s: a memory-resident global loop limit; the re-load must
//     carry a global-cell claim bounded by the single store, and the
//     strided store it guards must classify as proven_predictable.
//   - memstack.s: a spilled-local loop limit; the re-load must carry an
//     exact stack-slot claim and the guarded store must classify.
//   - memescape.s: the negative case; after the slot's address escapes
//     into a callee that rewrites it, no load may carry a slot claim (the
//     stale value 5 would be dynamically refuted — the callee stores 6).
//   - memlate.s: an escape first reached in the pass that settles the
//     entry facts, after that pass kept the escaped slot across a call;
//     the analysis must rerun under the grown escape set and a fresh
//     entry hypothesis, so h's load, indexed by the slot's re-loaded
//     value, may not claim the stale exact base (the replay refutes the
//     failing verdict it would prove — the escape rewrites the slot).
func TestMemoryDomainCorpus(t *testing.T) {
	for _, tc := range []struct {
		file   string
		verify func(t *testing.T, a *staticfac.Analysis)
	}{
		{"memglobal.s", func(t *testing.T, a *staticfac.Analysis) {
			var cell *staticfac.Site
			for i := range a.Sites {
				s := &a.Sites[i]
				if !s.Store && s.CellKind == staticfac.CellGlobal {
					cell = s
				}
				if s.Inst.Op.IsStore() && s.Mode != 0 && s.Verdict != staticfac.VerdictPredictable {
					t.Errorf("guarded store %#x is %v, want proven_predictable", s.PC, s.Verdict)
				}
			}
			if cell == nil {
				t.Fatal("no load carries a global-cell claim")
			}
			if cell.Val.IV.Lo() != 0 || cell.Val.IV.Hi() != 8 {
				t.Errorf("global cell claim %v, want interval [0, 8] (image 0 joined with the store of 8)", cell.Val)
			}
		}},
		{"memstack.s", func(t *testing.T, a *staticfac.Analysis) {
			var cell *staticfac.Site
			for i := range a.Sites {
				s := &a.Sites[i]
				if !s.Store && s.CellKind == staticfac.CellStack {
					cell = s
				}
				if s.Inst.Op.IsStore() && s.Mode != 0 && s.Verdict != staticfac.VerdictPredictable {
					t.Errorf("guarded store %#x is %v, want proven_predictable", s.PC, s.Verdict)
				}
			}
			if cell == nil {
				t.Fatal("no load carries a stack-slot claim")
			}
			if !cell.Val.K.IsExact() || cell.Val.K.Ones != 8 {
				t.Errorf("stack slot claim %v, want exactly 8 (the spilled bound)", cell.Val)
			}
		}},
		{"memescape.s", func(t *testing.T, a *staticfac.Analysis) {
			for i := range a.Sites {
				s := &a.Sites[i]
				if !s.Store && s.CellKind == staticfac.CellStack {
					t.Errorf("load %#x (%v) claims escaped stack slot %#x = %v; the callee rewrites it",
						s.PC, s.Inst, s.CellAddr, s.Val)
				}
			}
		}},
		{"memlate.s", func(t *testing.T, a *staticfac.Analysis) {
			for i := range a.Sites {
				s := &a.Sites[i]
				if !s.Store && s.CellKind == staticfac.CellStack {
					t.Errorf("load %#x (%v) claims escaped stack slot %#x = %v; f's escape rewrites it",
						s.PC, s.Inst, s.CellAddr, s.Val)
				}
				if s.Func == "h" && (s.Base.IsExact() || s.Verdict != staticfac.VerdictUnknown) {
					t.Errorf("h's load %#x is %v with base %v; its index is the escaped slot's value, which is unknown",
						s.PC, s.Verdict, s.Base)
				}
			}
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			p := buildCorpus(t, tc.file)
			if err := Run(p, 100_000); err != nil {
				t.Fatal(err)
			}
			m := machineByName(t, "fac32")
			a := staticfac.Analyze(p, m.Cfg.FACGeometry())
			tc.verify(t, a)

			rep := staticfac.NewReport(a)
			name := tc.file[:len(tc.file)-2]
			rep.Add(name, "base", a)
			got, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "staticfac", name+".json")
			if *updateMemGoldens {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report differs from %s (run with -update to regenerate)", golden)
			}
		})
	}
}
