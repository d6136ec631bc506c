package experiments

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one benchmark's ablation measurements.
type AblationRow struct {
	Name  string
	Class workload.Class

	// Tag adder: hardware-only load failure rates at 32B blocks.
	LoadFailOR  float64 // plain carry-free OR in the tag field
	LoadFailTag float64 // full adder in the tag field
	TagSpeedup  float64 // cycles(no tag adder)/cycles(tag adder)

	// Store buffer depth: cycles relative to the 16-entry default.
	SB4Rel  float64
	SB64Rel float64

	// Outstanding misses: cycles with 1 MSHR relative to 8.
	MSHR1Rel float64

	// Block-size sweep: hardware-only load failure rates.
	LoadFail16 float64
	LoadFail32 float64
	LoadFail64 float64
}

// AblationResult is the full ablation study.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations measures the design-choice sensitivities DESIGN.md calls out:
// the optional tag adder (paper Section 3.1), store-buffer depth, the
// number of outstanding misses, and the predictor's block-offset width.
func (s *Suite) Ablations() (*AblationResult, error) {
	g, err := s.grid(grid{
		timing: []Run{
			{"base", MFAC32}, {"base", MFAC32Tag},
			{"fac", MFAC32}, {"fac", MFAC32SB4}, {"fac", MFAC32SB64},
			{"fac", MFAC32MSHR1},
		},
		functional: []string{"base"},
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for _, w := range g.workloads {
		prof := g.functional(w, "base").Profile
		cycles := func(tc string, m Machine) float64 { return float64(g.timing(w, tc, m).Cycles) }
		sb16 := cycles("fac", MFAC32)
		res.Rows = append(res.Rows, AblationRow{
			Name: w.Name, Class: w.Class,
			LoadFailOR:  prof.LoadFailRate(1),
			LoadFailTag: prof.LoadFailRate(2),
			TagSpeedup:  cycles("base", MFAC32) / cycles("base", MFAC32Tag),
			SB4Rel:      cycles("fac", MFAC32SB4) / sb16,
			SB64Rel:     cycles("fac", MFAC32SB64) / sb16,
			MSHR1Rel:    cycles("fac", MFAC32MSHR1) / sb16,
			LoadFail16:  prof.LoadFailRate(0),
			LoadFail32:  prof.LoadFailRate(1),
			LoadFail64:  prof.LoadFailRate(3),
		})
	}
	return res, nil
}

// Table renders the ablation study as text.
func (r *AblationResult) Table() *stats.Table {
	t := &stats.Table{
		Title: "Ablations: tag adder, store buffer depth, MSHRs, block size",
		Headers: []string{"benchmark",
			"ldfail%OR", "ldfail%tag", "tag-speedup",
			"sb4 rel", "sb64 rel", "mshr1 rel",
			"ldfail%16B", "ldfail%32B", "ldfail%64B"},
	}
	var tagSp, sb4, sb64, mshr []float64
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			stats.Pct(row.LoadFailOR), stats.Pct(row.LoadFailTag), stats.F3(row.TagSpeedup),
			stats.F3(row.SB4Rel), stats.F3(row.SB64Rel), stats.F3(row.MSHR1Rel),
			stats.Pct(row.LoadFail16), stats.Pct(row.LoadFail32), stats.Pct(row.LoadFail64))
		tagSp = append(tagSp, row.TagSpeedup)
		sb4 = append(sb4, row.SB4Rel)
		sb64 = append(sb64, row.SB64Rel)
		mshr = append(mshr, row.MSHR1Rel)
	}
	t.AddRow("GeoMean", "", "", stats.F3(stats.GeoMean(tagSp)),
		stats.F3(stats.GeoMean(sb4)), stats.F3(stats.GeoMean(sb64)),
		stats.F3(stats.GeoMean(mshr)), "", "")
	return t
}
