package experiments

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// AGIRow compares pipeline organizations on one benchmark (paper Section 6,
// after Golden & Mudge 1994): the traditional 5-stage LUI pipeline, the
// AGI organization (dedicated address-generation stage), and the paper's
// answer — LUI with fast address calculation.
type AGIRow struct {
	Name  string
	Class workload.Class
	// Speedups over the LUI baseline (values < 1 are slowdowns).
	AGI   float64
	FAC   float64 // hardware-only FAC on the LUI pipeline
	FACSW float64 // FAC plus software support
}

// AGIResult is the full comparison.
type AGIResult struct {
	Rows   []AGIRow
	IntAvg [3]float64
	FPAvg  [3]float64
}

// CompareAGI measures the two pipeline organizations against fast address
// calculation.
func (s *Suite) CompareAGI() (*AGIResult, error) {
	g, err := s.grid(grid{timing: []Run{
		{"base", MBase32}, {"base", MAGI}, {"base", MFAC32}, {"fac", MFAC32},
	}})
	if err != nil {
		return nil, err
	}
	res := &AGIResult{}
	var avg classMeans
	for _, w := range g.workloads {
		cycles := func(tc string, m Machine) float64 { return float64(g.timing(w, tc, m).Cycles) }
		base := cycles("base", MBase32)
		row := AGIRow{
			Name: w.Name, Class: w.Class,
			AGI:   base / cycles("base", MAGI),
			FAC:   base / cycles("base", MFAC32),
			FACSW: base / cycles("fac", MFAC32),
		}
		res.Rows = append(res.Rows, row)
		// Weight 1: these averages are unweighted, unlike Figures 2 and 6.
		avg.add(w.Class, 1, row.AGI, row.FAC, row.FACSW)
	}
	avg.mean(workload.Int, res.IntAvg[:])
	avg.mean(workload.FP, res.FPAvg[:])
	return res, nil
}

// Table renders the comparison as text.
func (r *AGIResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Pipeline organizations: AGI (Jouppi) vs. fast address calculation, speedup over the LUI baseline",
		Headers: []string{"benchmark", "class", "AGI", "FAC (H/W)", "FAC (H/W+S/W)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class, stats.F3(row.AGI), stats.F3(row.FAC), stats.F3(row.FACSW))
	}
	t.AddRow("Int-Avg", "int", stats.F3(r.IntAvg[0]), stats.F3(r.IntAvg[1]), stats.F3(r.IntAvg[2]))
	t.AddRow("FP-Avg", "fp", stats.F3(r.FPAvg[0]), stats.F3(r.FPAvg[1]), stats.F3(r.FPAvg[2]))
	return t
}
