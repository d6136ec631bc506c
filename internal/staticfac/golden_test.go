package staticfac_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

func buildMicro(t *testing.T, name string, falign bool) *prog.Program {
	t.Helper()
	tc := workload.BaseToolchain()
	if falign {
		tc = workload.FACToolchain()
	}
	p, err := workload.Load("", filepath.Join("testdata", name+".c"), tc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenVerdicts pins the full fac/static/v1 report for the two
// Section 4 microbenchmarks under both toolchains against golden files
// (refresh with go test ./internal/staticfac -run Golden -update).
func TestGoldenVerdicts(t *testing.T) {
	geom := fac.Config{BlockBits: 5, SetBits: 10}
	for _, micro := range []string{"gp_micro", "stack_micro"} {
		for _, toolchain := range []string{"base", "falign"} {
			name := micro + "_" + toolchain
			t.Run(name, func(t *testing.T) {
				p := buildMicro(t, micro, toolchain == "falign")
				a := staticfac.Analyze(p, geom)
				rep := staticfac.NewReport(a)
				rep.Add(micro, toolchain, a)
				got, err := rep.Encode()
				if err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", name+".json")
				if *update {
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
					t.Fatalf("report differs from %s (run with -update to regenerate)\ngot %d bytes, want %d bytes",
						golden, len(got), len(want))
				}
			})
		}
	}
}

// TestSuiteVerdictsGolden pins the analysis of every workload under both
// toolchains at the two geometries faclint, facprof and the selective
// machine use (16- and 32-byte blocks, SetBits 14). Each line of
// testdata/suite.golden is "workload/toolchain/block report explain": the
// SHA-256 of the fac/static/v1 report, and of the Explain text of every
// reached unknown site in PC order. A refactor of the analysis must leave
// every line unchanged; an intended change of output regenerates the file
// from the lines this test reports. -short checks the base toolchain at
// 32-byte blocks only.
func TestSuiteVerdictsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sums, _ := strings.Cut(line, " ")
		golden[name] = sums
	}
	toolchains := []workload.Toolchain{workload.BaseToolchain(), workload.FACToolchain()}
	blocks := []uint{4, 5}
	if testing.Short() {
		toolchains, blocks = toolchains[:1], blocks[1:]
	}
	seen := 0
	for _, w := range workload.All() {
		for _, tc := range toolchains {
			p, err := workload.Build(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			for _, bb := range blocks {
				name := fmt.Sprintf("%s/%s/%d", w.Name, tc.Name, 1<<bb)
				a := staticfac.Analyze(p, fac.Config{BlockBits: bb, SetBits: 14})
				rep := staticfac.NewReport(a)
				rep.Add(w.Name, tc.Name, a)
				js, err := rep.Encode()
				if err != nil {
					t.Fatal(err)
				}
				ex := sha256.New()
				for i := range a.Sites {
					if s := &a.Sites[i]; s.Reached && s.Verdict == staticfac.VerdictUnknown {
						text, _ := a.Explain(s.PC)
						ex.Write([]byte(text))
					}
				}
				seen++
				sums := fmt.Sprintf("%x %x", sha256.Sum256(js), ex.Sum(nil))
				if golden[name] != sums {
					t.Errorf("%s: analysis differs from the golden; the new line is %q", name, name+" "+sums)
				}
			}
		}
	}
	if !testing.Short() && seen != len(golden) {
		t.Errorf("%d analyses, golden has %d lines", seen, len(golden))
	}
}

// TestAlignmentFlipsVerdicts asserts the Section 4 claims directly, so the
// golden files cannot silently encode a regression:
//
//   - gp_micro/base has global-pointer sites proven to fail (the unaligned
//     global region), all of which -falign makes proven_predictable;
//   - stack_micro/base has unknown stack sites in the recursive function
//     (only frame alignment survives recursion), all of which -falign makes
//     proven_predictable -- the unknown -> proven_predictable flip.
func TestAlignmentFlipsVerdicts(t *testing.T) {
	geom := fac.Config{BlockBits: 5, SetBits: 10}

	t.Run("gp", func(t *testing.T) {
		base := staticfac.Analyze(buildMicro(t, "gp_micro", false), geom)
		failing := 0
		for i := range base.Sites {
			s := &base.Sites[i]
			if s.Inst.BaseReg() == isa.GP && s.Verdict == staticfac.VerdictFailing {
				failing++
			}
		}
		if failing == 0 {
			t.Fatal("base toolchain: no proven_failing global-pointer site")
		}
		fa := staticfac.Analyze(buildMicro(t, "gp_micro", true), geom)
		for i := range fa.Sites {
			s := &fa.Sites[i]
			if s.Inst.BaseReg() == isa.GP && s.Verdict != staticfac.VerdictPredictable {
				t.Fatalf("falign: gp site %#x (%v) is %v, want proven_predictable",
					s.PC, s.Inst, s.Verdict)
			}
		}
	})

	t.Run("stack", func(t *testing.T) {
		base := staticfac.Analyze(buildMicro(t, "stack_micro", false), geom)
		unknown := 0
		for i := range base.Sites {
			s := &base.Sites[i]
			if s.Func == "sum" && s.Reached && s.Verdict == staticfac.VerdictUnknown {
				unknown++
			}
		}
		if unknown == 0 {
			t.Fatal("base toolchain: no unknown stack site in the recursive function")
		}
		fa := staticfac.Analyze(buildMicro(t, "stack_micro", true), geom)
		for i := range fa.Sites {
			s := &fa.Sites[i]
			if s.Func == "sum" && s.Reached && s.Verdict != staticfac.VerdictPredictable {
				t.Fatalf("falign: stack site %#x (%v) is %v, want proven_predictable",
					s.PC, s.Inst, s.Verdict)
			}
		}
	})
}
