package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/ltb"
	"repro/internal/profile"
	"repro/internal/workload"
)

// TestFunctionalSinglePass: Suite.Functional's one emulator pass measures
// exactly what standalone runs measure — profile.Run over the same four
// geometries, and an emulator replay of every load through the two load
// target buffers — on both toolchains of an integer and an FP workload.
func TestFunctionalSinglePass(t *testing.T) {
	s := NewSuite()
	for _, name := range []string{"hashp", "dct"} {
		w := testWorkload(t, name)
		for _, tc := range []string{"base", "fac"} {
			fr, err := s.Functional(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			toolchain, err := workload.ToolchainByName(tc)
			if err != nil {
				t.Fatal(err)
			}
			p, err := workload.Build(w, toolchain)
			if err != nil {
				t.Fatal(err)
			}

			prof, _, err := profile.Run(p, s.MaxInsts, Geo16, Geo32, geoTag, geo64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fr.Profile, prof) {
				t.Errorf("%s/%s: profile differs from profile.Run:\n got %+v\nwant %+v", name, tc, fr.Profile, prof)
			}

			last := ltb.New(ltb.Config{Entries: 1024})
			stride := ltb.New(ltb.Config{Entries: 1024, Stride: true})
			e := emu.New(p)
			e.MaxInsts = s.MaxInsts
			var tr emu.Trace
			for !e.Halted {
				if err := e.StepInto(&tr); err != nil {
					t.Fatal(err)
				}
				if tr.Inst.Op.IsLoad() {
					last.Access(tr.PC, tr.EffAddr)
					stride.Access(tr.PC, tr.EffAddr)
				}
			}
			if fr.LTBLast != last.Accuracy() || fr.LTBStride != stride.Accuracy() {
				t.Errorf("%s/%s: LTB accuracies %v/%v, replay gives %v/%v",
					name, tc, fr.LTBLast, fr.LTBStride, last.Accuracy(), stride.Accuracy())
			}
		}
	}
}

// TestFunctionalGolden pins every raw count of the 38 functional passes
// (19 workloads on both toolchains): the four geometries' failure counts,
// the TLB counts, the offset histograms, the reference mix, both LTB
// accuracies, the instruction count, the footprint and the output. Each
// pass's FuncResult JSON is hashed and compared with
// testdata/functional.golden, one "workload/toolchain sha256" line per
// pass. The rendered tables round to percentages and would hide a
// one-count drift. An intended change regenerates the file from the
// lines this test reports.
func TestFunctionalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("38 functional passes")
	}
	golden := readGolden(t, "functional.golden")
	g, err := shared.grid(grid{functional: []string{"base", "fac"}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range g.workloads {
		for _, tc := range []string{"base", "fac"} {
			b, err := json.Marshal(g.functional(w, tc))
			if err != nil {
				t.Fatal(err)
			}
			pass, sum := w.Name+"/"+tc, fmt.Sprintf("%x", sha256.Sum256(b))
			if golden[pass] != sum {
				t.Errorf("%s: FuncResult differs from the golden; the new line is %q", pass, pass+" "+sum)
			}
			n++
		}
	}
	if n != len(golden) {
		t.Errorf("%d passes, golden has %d", n, len(golden))
	}
}
