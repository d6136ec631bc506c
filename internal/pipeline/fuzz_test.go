package pipeline_test

// The random-trace generator that used to live here produced streams the
// speculative paths never saw: branches were always not-taken, and no
// post-increment or register+register accesses were ever emitted, so the
// reg+reg speculation path and the base-update timing went untested. The
// generator now lives in internal/difftest (RandomTrace), which covers
// taken branches, post-increment, reg+reg (including negative index
// registers), and FP memory traffic, and is shared with the differential
// fuzzing harness.

import (
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/emu"
	"repro/internal/pipeline"
)

// fastConfig is a machine with perfect caches and perfect fetch, isolating
// the issue timing under test (external-test mirror of sim_test.go's
// fastCfg).
func fastConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.PerfectICache = true
	cfg.PerfectDCache = true
	return cfg
}

// TestRandomTraceInvariants drives many random instruction streams through
// several machine configurations and checks global invariants of the
// timing model.
func TestRandomTraceInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	configs := []func() pipeline.Config{
		fastConfig,
		func() pipeline.Config { c := fastConfig(); c.Predictor = "fac"; return c },
		func() pipeline.Config { c := fastConfig(); c.Predictor = "fac"; c.SpeculateRegReg = true; return c },
		pipeline.DefaultConfig,
		func() pipeline.Config { c := pipeline.DefaultConfig(); c.Predictor = "fac"; return c },
		func() pipeline.Config { c := fastConfig(); c.AGI = true; return c },
		func() pipeline.Config { c := fastConfig(); c.LoadLatency = 1; return c },
	}
	for trial := 0; trial < 40; trial++ {
		n := 50 + r.Intn(500)
		trs := difftest.RandomTrace(r, n)
		for ci, mk := range configs {
			cfg := mk()
			st, err := pipeline.RunCtx(nil, cfg, pipeline.Replay(trs, nil), nil)
			if err != nil {
				t.Fatalf("trial %d config %d: %v", trial, ci, err)
			}
			if st.Insts != uint64(n) {
				t.Fatalf("trial %d config %d: executed %d of %d", trial, ci, st.Insts, n)
			}
			// The machine cannot beat its issue width.
			if st.Cycles < uint64((n+cfg.IssueWidth-1)/cfg.IssueWidth) {
				t.Fatalf("trial %d config %d: %d cycles for %d insts exceeds issue width",
					trial, ci, st.Cycles, n)
			}
			// Speculation accounting is internally consistent.
			if st.LoadSpecFailed > st.LoadsSpeculated || st.StoresSpeculated > st.Stores ||
				st.LoadsSpeculated > st.Loads || st.StoreSpecFailed > st.StoresSpeculated {
				t.Fatalf("trial %d config %d: inconsistent speculation stats %+v", trial, ci, st)
			}
			if st.ExtraAccesses != st.LoadSpecFailed+st.StoreSpecFailed {
				t.Fatalf("trial %d config %d: extra accesses %d != failed speculations %d+%d",
					trial, ci, st.ExtraAccesses, st.LoadSpecFailed, st.StoreSpecFailed)
			}
			if cfg.Predictor == "" && (st.LoadsSpeculated != 0 || st.StoresSpeculated != 0) {
				t.Fatalf("trial %d config %d: speculation without FAC", trial, ci)
			}
		}
	}
}

// TestRandomTraceOracle runs the shared generator's streams through the
// full difftest event-stream checker from inside the pipeline package's
// test suite, so a timing-model regression fails here even when the
// difftest package itself is not under test.
func TestRandomTraceOracle(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		trs := difftest.RandomTrace(rand.New(rand.NewSource(seed)), 2000)
		if err := difftest.RunTrace(trs, difftest.Machines()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFACNeverCatastrophic: on adversarial random traces (predictions fail
// often and memory operations are dense), FAC costs at most a bounded
// amount of extra bandwidth contention. The paper acknowledges this
// failure mode ("the processor may end up stalling more often on the
// store buffer, possibly resulting in overall worse performance",
// Section 3.1); on the real workload suite FAC never degrades more than
// ~3% (see the experiments package tests).
func TestFACNeverCatastrophic(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		trs := difftest.RandomTrace(r, 400)
		base := mustRunExt(t, fastConfig(), trs)
		cfg := fastConfig()
		cfg.Predictor = "fac"
		facStats := mustRunExt(t, cfg, trs)
		if float64(facStats.Cycles) > 1.20*float64(base.Cycles)+4 {
			t.Fatalf("trial %d: FAC %d cycles vs baseline %d (degradation beyond bound)",
				trial, facStats.Cycles, base.Cycles)
		}
	}
}

func mustRunExt(t *testing.T, cfg pipeline.Config, trs []emu.Trace) pipeline.Stats {
	t.Helper()
	st, err := pipeline.RunCtx(nil, cfg, pipeline.Replay(trs, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
