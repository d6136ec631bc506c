package experiments

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// LTBRow compares fast address calculation against the load target buffer
// of Golden & Mudge (paper Section 6) on one benchmark: the fraction of
// loads whose effective address each mechanism predicts correctly.
type LTBRow struct {
	Name  string
	Class workload.Class
	// Success rates over all loads.
	FACHW     float64 // fast address calculation, hardware only
	FACSW     float64 // with Section 4 software support
	LTBLast   float64 // 1K-entry LTB, last-address policy
	LTBStride float64 // 1K-entry LTB, stride policy
}

// LTBResult is the full comparison.
type LTBResult struct {
	Rows []LTBRow
}

// CompareLTB measures the Related Work claim that predicting from the
// operands (FAC) beats predicting from the load's PC (LTB).
func (s *Suite) CompareLTB() (*LTBResult, error) {
	g, err := s.grid(grid{functional: []string{"base", "fac"}})
	if err != nil {
		return nil, err
	}
	res := &LTBResult{}
	for _, w := range g.workloads {
		base, opt := g.functional(w, "base"), g.functional(w, "fac")
		res.Rows = append(res.Rows, LTBRow{
			Name: w.Name, Class: w.Class,
			// Geometry index 1 is the 32-byte-block predictor.
			FACHW:     1 - base.Profile.LoadFailRate(1),
			FACSW:     1 - opt.Profile.LoadFailRate(1),
			LTBLast:   base.LTBLast,
			LTBStride: base.LTBStride,
		})
	}
	return res, nil
}

// Table renders the comparison as text.
func (r *LTBResult) Table() *stats.Table {
	t := &stats.Table{
		Title: "FAC vs. load target buffer (Golden & Mudge): correct load-address predictions, % of loads",
		Headers: []string{"benchmark", "class",
			"FAC (H/W)", "FAC (H/W+S/W)", "LTB last-addr", "LTB stride"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class,
			stats.Pct(row.FACHW), stats.Pct(row.FACSW),
			stats.Pct(row.LTBLast), stats.Pct(row.LTBStride))
	}
	return t
}
