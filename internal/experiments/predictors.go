package experiments

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// PredictorMachines lists the cross-predictor grid's machines in display
// order: the paper's operand-based fast address calculation against the
// history-based machines of the predictor zoo (internal/predict) and the
// statically gated selective variant, all at 32-byte blocks.
func PredictorMachines() []Machine {
	return []Machine{MFAC32, MPCAX, MStride, MSelective}
}

// PredictorCell is one (benchmark, machine) measurement of the grid.
type PredictorCell struct {
	// Speedup over the baseline machine running the same binary.
	Speedup float64
	// Coverage is the fraction of memory references the machine chose to
	// speculate on (operand-based machines always speculate on eligible
	// accesses; history machines decline cold or conflicted table entries,
	// and selective declines proven-failing sites).
	Coverage float64
	// FailRate is the mispredicted fraction of the speculated accesses.
	FailRate float64
}

// PredictorRow is one benchmark's row of the cross-predictor grid.
type PredictorRow struct {
	Name   string
	Class  workload.Class
	Cells  []PredictorCell // index-aligned with PredictorMachines
	Weight float64         // baseline cycles, the speedup-average weight
}

// PredictorsResult is the full cross-predictor comparison.
type PredictorsResult struct {
	Rows []PredictorRow
	// Class averages, index-aligned with PredictorMachines: speedups are
	// weighted by baseline cycles (as in Figure 6); coverage and failure
	// rates are computed over the class's summed access counts.
	IntAvg []PredictorCell
	FPAvg  []PredictorCell
}

// ComparePredictors runs the whole benchmark suite under every machine of
// the predictor grid and the baseline, all on the software-supported (fac
// toolchain) binary so the machines compete on identical reference
// streams. This is the Table-5-style cross-predictor comparison.
func (s *Suite) ComparePredictors() (*PredictorsResult, error) {
	machines := PredictorMachines()
	runs := []Run{{"fac", MBase32}}
	for _, m := range machines {
		runs = append(runs, Run{"fac", m})
	}
	g, err := s.grid(grid{timing: runs})
	if err != nil {
		return nil, err
	}

	// Per-class accumulators for the averages.
	type acc struct {
		speedups, weights []float64
		refs, spec, fails uint64
	}
	accs := map[workload.Class][]acc{
		workload.Int: make([]acc, len(machines)),
		workload.FP:  make([]acc, len(machines)),
	}

	res := &PredictorsResult{}
	for _, w := range g.workloads {
		base := g.timing(w, "fac", MBase32)
		row := PredictorRow{Name: w.Name, Class: w.Class, Weight: float64(base.Cycles)}
		for i, m := range machines {
			st := g.timing(w, "fac", m)
			// Every grid machine speculates, so the FAC section is present.
			refs := st.Loads + st.Stores
			spec := st.FAC.LoadsSpeculated + st.FAC.StoresSpeculated
			fails := st.FAC.LoadFails + st.FAC.StoreFails
			row.Cells = append(row.Cells, PredictorCell{
				Speedup:  float64(base.Cycles) / float64(st.Cycles),
				Coverage: safeDiv(spec, refs),
				FailRate: safeDiv(fails, spec),
			})
			a := &accs[w.Class][i]
			a.speedups = append(a.speedups, row.Cells[i].Speedup)
			a.weights = append(a.weights, row.Weight)
			a.refs += refs
			a.spec += spec
			a.fails += fails
		}
		res.Rows = append(res.Rows, row)
	}
	avg := func(class workload.Class) []PredictorCell {
		cells := make([]PredictorCell, len(machines))
		for i := range machines {
			a := &accs[class][i]
			cells[i] = PredictorCell{
				Speedup:  stats.WeightedMean(a.speedups, a.weights),
				Coverage: safeDiv(a.spec, a.refs),
				FailRate: safeDiv(a.fails, a.spec),
			}
		}
		return cells
	}
	res.IntAvg = avg(workload.Int)
	res.FPAvg = avg(workload.FP)
	return res, nil
}

// Table renders the cross-predictor grid as text.
func (r *PredictorsResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Predictor zoo: speedup over baseline, speculation coverage, and misprediction rate (fac binary, 32B blocks)",
		Headers: []string{"benchmark", "class"},
	}
	for _, m := range PredictorMachines() {
		t.Headers = append(t.Headers, string(m)+" spd", string(m)+" cov", string(m)+" fail")
	}
	add := func(name, class string, cells []PredictorCell) {
		row := []interface{}{name, class}
		for _, c := range cells {
			row = append(row, stats.F3(c.Speedup), stats.Pct(c.Coverage), stats.Pct(c.FailRate))
		}
		t.AddRow(row...)
	}
	for _, row := range r.Rows {
		add(row.Name, row.Class.String(), row.Cells)
	}
	add("Int-Avg", "int", r.IntAvg)
	add("FP-Avg", "fp", r.FPAvg)
	return t
}
