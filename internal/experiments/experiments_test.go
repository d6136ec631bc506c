package experiments

import (
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

func TestMachineConfigsValid(t *testing.T) {
	machines := []Machine{
		MBase32, MBase16, MOneCycle, MPerfect, MOnePerfect,
		MFAC16, MFAC32, MFAC16RR, MFAC32RR,
		MFAC32Tag, MFAC32SB4, MFAC32SB64, MFAC32MSHR1,
	}
	for _, m := range machines {
		cfg, err := MachineConfig(m)
		if err != nil {
			t.Errorf("MachineConfig(%s): %v", m, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %s invalid: %v", m, err)
		}
	}
	if _, err := MachineConfig("nope"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestMachineConfigKnobs(t *testing.T) {
	c, _ := MachineConfig(MFAC16)
	if c.Predictor != "fac" || c.DCache.BlockSize != 16 || c.SpeculateRegReg {
		t.Errorf("MFAC16 = %+v", c)
	}
	c, _ = MachineConfig(MFAC32RR)
	if c.Predictor != "fac" || !c.SpeculateRegReg {
		t.Errorf("MFAC32RR = %+v", c)
	}
	c, _ = MachineConfig(MOneCycle)
	if c.LoadLatency != 1 || c.Predictor != "" {
		t.Errorf("MOneCycle = %+v", c)
	}
	c, _ = MachineConfig(MFAC32Tag)
	if !c.FACGeom.TagAdder {
		t.Errorf("MFAC32Tag = %+v", c)
	}
}

// suiteForTest shares one Suite across the heavier tests in this package.
var shared = NewSuite()

func testWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTimingMemoization(t *testing.T) {
	w := testWorkload(t, "queens")
	a, err := shared.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shared.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized run differs")
	}
	if a.Cycles == 0 || a.Insts == 0 {
		t.Errorf("degenerate stats %+v", a)
	}
}

// TestHeadlineResult verifies the paper's core claim on two benchmarks:
// fast address calculation speeds programs up, and software support
// increases the gain (or at least the prediction accuracy).
func TestHeadlineResult(t *testing.T) {
	for _, name := range []string{"queens", "qsortst"} {
		w := testWorkload(t, name)
		base, err := shared.Timing(w, "base", MBase32)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := shared.Timing(w, "base", MFAC32)
		if err != nil {
			t.Fatal(err)
		}
		hwsw, err := shared.Timing(w, "fac", MFAC32)
		if err != nil {
			t.Fatal(err)
		}
		if hw.Cycles >= base.Cycles {
			t.Errorf("%s: hardware-only FAC did not speed up (%d vs %d cycles)", name, hw.Cycles, base.Cycles)
		}
		if hwsw.Cycles >= base.Cycles {
			t.Errorf("%s: FAC+software did not speed up (%d vs %d)", name, hwsw.Cycles, base.Cycles)
		}
		swFail := safeDiv(hwsw.FAC.LoadFails, hwsw.FAC.LoadsSpeculated)
		hwFail := safeDiv(hw.FAC.LoadFails, hw.FAC.LoadsSpeculated)
		if swFail > hwFail {
			t.Errorf("%s: software support increased load failure rate (%.3f vs %.3f)",
				name, swFail, hwFail)
		}
	}
}

// TestSoftwareSupportCutsFailures checks the Table 4 effect functionally
// across the whole suite: with software support and no register+register
// accesses counted, prediction failures collapse.
func TestSoftwareSupportCutsFailures(t *testing.T) {
	for _, w := range workload.All() {
		base, err := shared.Functional(w, "base")
		if err != nil {
			t.Fatal(err)
		}
		opt, err := shared.Functional(w, "fac")
		if err != nil {
			t.Fatal(err)
		}
		// Geometry 1 is the 32B-block predictor.
		if opt.Profile.LoadFailRate(1) > base.Profile.LoadFailRate(1)+0.01 {
			t.Errorf("%s: software support raised load failures (%.1f%% -> %.1f%%)",
				w.Name, 100*base.Profile.LoadFailRate(1), 100*opt.Profile.LoadFailRate(1))
		}
		if nr := opt.Profile.LoadFailRateNoRR(1); nr > 0.15 {
			t.Errorf("%s: no-R+R failure rate with software support = %.1f%%", w.Name, 100*nr)
		}
	}
}

// TestFigure2Shape verifies the Figure 2 orderings on one benchmark:
// 1-cycle loads and a perfect cache each beat the baseline, and their
// combination beats both.
func TestFigure2Shape(t *testing.T) {
	w := testWorkload(t, "compress")
	get := func(m Machine) float64 {
		st, err := shared.Timing(w, "base", m)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPC
	}
	base, one, perf, both := get(MBase32), get(MOneCycle), get(MPerfect), get(MOnePerfect)
	if one <= base || perf < base {
		t.Errorf("IPC ordering broken: base=%.3f 1cyc=%.3f perfect=%.3f", base, one, perf)
	}
	if both < one || both < perf {
		t.Errorf("combined config not best: %.3f vs %.3f/%.3f", both, one, perf)
	}
}

func TestTable1Sane(t *testing.T) {
	r, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 19 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.LoadPct <= 0 || row.LoadPct > 0.5 {
			t.Errorf("%s: load fraction %.3f implausible", row.Name, row.LoadPct)
		}
		sum := row.GlobalPct + row.StackPct + row.GeneralPct
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: breakdown sums to %.4f", row.Name, sum)
		}
	}
	txt := r.Table().String()
	if !strings.Contains(txt, "compress") || !strings.Contains(txt, "%general") {
		t.Error("rendered table incomplete")
	}
}

func TestFigure3Sane(t *testing.T) {
	r, err := shared.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(Figure3Workloads)*int(profile.NumRefTypes) {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, sr := range r.Series {
		last := 0.0
		for _, v := range sr.Cumulative {
			if v < last-1e-9 {
				t.Errorf("%s/%v: cumulative distribution decreases", sr.Benchmark, sr.RefType)
				break
			}
			last = v
		}
		if sr.Cumulative[16]+sr.Negative > 1.0001 {
			t.Errorf("%s/%v: mass exceeds 1", sr.Benchmark, sr.RefType)
		}
	}
	if !strings.Contains(r.Table().String(), "hashp") {
		t.Error("rendered figure incomplete")
	}
}

// TestZeroOffsetShareDrivesPrediction: workloads dominated by zero-offset
// general loads (strength-reduced pointer walks) predict well even without
// software support — the paper's Alvinn/Elvis observation.
func TestZeroOffsetShareDrivesPrediction(t *testing.T) {
	w := testWorkload(t, "mcarlo")
	fr, err := shared.Functional(w, "base")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Profile.LoadFailRate(1) > 0.05 {
		t.Errorf("mcarlo baseline failure rate %.1f%%, expected near zero",
			100*fr.Profile.LoadFailRate(1))
	}
}

// TestFACNeverDegradesSameBinary checks the paper's Section 5.5 claim:
// with sufficient cache bandwidth, enabling fast address calculation never
// slows a program down relative to the same binary on the baseline machine,
// regardless of how often prediction fails.
func TestFACNeverDegradesSameBinary(t *testing.T) {
	for _, name := range []string{"route", "compress", "stencil", "hashp"} {
		w := testWorkload(t, name)
		for _, tc := range []string{"base", "fac"} {
			base, err := shared.Timing(w, tc, MBase32)
			if err != nil {
				t.Fatal(err)
			}
			withFAC, err := shared.Timing(w, tc, MFAC32)
			if err != nil {
				t.Fatal(err)
			}
			if float64(withFAC.Cycles) > 1.005*float64(base.Cycles) {
				t.Errorf("%s/%s: FAC degraded the same binary: %d vs %d cycles",
					name, tc, withFAC.Cycles, base.Cycles)
			}
		}
	}
}

// TestAGIComparisonShape: AGI roughly breaks even while FAC wins — the
// paper's Related Work position.
func TestAGIComparisonShape(t *testing.T) {
	w := testWorkload(t, "queens")
	base, err := shared.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	agi, err := shared.Timing(w, "base", MAGI)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := shared.Timing(w, "base", MFAC32)
	if err != nil {
		t.Fatal(err)
	}
	agiSpeedup := float64(base.Cycles) / float64(agi.Cycles)
	facSpeedup := float64(base.Cycles) / float64(fac.Cycles)
	if agiSpeedup < 0.85 || agiSpeedup > 1.25 {
		t.Errorf("AGI speedup %.3f outside the break-even band", agiSpeedup)
	}
	if facSpeedup <= agiSpeedup-0.2 {
		t.Errorf("FAC (%.3f) unexpectedly far below AGI (%.3f)", facSpeedup, agiSpeedup)
	}
}

// TestLTBComparisonRuns exercises the related-work experiment end to end on
// its structure (full-suite accuracy numbers are asserted loosely).
func TestLTBComparisonRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r, err := shared.CompareLTB()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 19 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, v := range []float64{row.FACHW, row.FACSW, row.LTBLast, row.LTBStride} {
			if v < 0 || v > 1 {
				t.Errorf("%s: accuracy %v out of range", row.Name, v)
			}
		}
		if row.FACSW+1e-9 < row.FACHW {
			t.Errorf("%s: software support lowered FAC accuracy (%.3f -> %.3f)",
				row.Name, row.FACHW, row.FACSW)
		}
	}
	if !strings.Contains(r.Table().String(), "LTB stride") {
		t.Error("rendered table incomplete")
	}
}

// TestCacheSweepShape: FAC speedups stay positive at every cache size, and
// baseline miss ratios fall monotonically as the cache grows.
func TestCacheSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	r, err := shared.CacheSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 19 || len(r.Sizes) != len(SweepSizes) {
		t.Fatalf("shape: %d rows, %d sizes", len(r.Rows), len(r.Sizes))
	}
	for _, row := range r.Rows {
		for i, sp := range row.Speedups {
			if sp < 0.95 {
				t.Errorf("%s @%dk: FAC speedup %.3f below floor", row.Name, r.Sizes[i]>>10, sp)
			}
		}
		for i := 1; i < len(row.DMiss); i++ {
			if row.DMiss[i] > row.DMiss[i-1]+0.005 {
				t.Errorf("%s: miss ratio rose with cache size (%.3f -> %.3f)",
					row.Name, row.DMiss[i-1], row.DMiss[i])
			}
		}
	}
	if !strings.Contains(r.Table().String(), "64k spd") {
		t.Error("rendered sweep incomplete")
	}
}
