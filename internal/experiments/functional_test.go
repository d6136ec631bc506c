package experiments

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/ltb"
	"repro/internal/profile"
	"repro/internal/workload"
)

// TestFunctionalSinglePass: Suite.Functional's one emulator pass measures
// exactly what standalone runs measure — profile.Run over the same four
// geometries, and an emu.Step replay of every load through the two load
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
			for !e.Halted {
				tr, err := e.Step()
				if err != nil {
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
