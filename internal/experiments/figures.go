package experiments

import (
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure2Row holds one benchmark's IPC under the four memory systems of the
// paper's Figure 2.
type Figure2Row struct {
	Name     string
	Class    workload.Class
	Baseline float64 // 2-cycle loads, real cache
	OneCycle float64 // 1-cycle loads, real cache
	Perfect  float64 // 2-cycle loads, perfect cache
	OnePerf  float64 // 1-cycle loads, perfect cache
	Weight   float64 // baseline cycles (for the weighted averages)
}

// Figure2Result is the full figure.
type Figure2Result struct {
	Rows   []Figure2Row
	IntAvg [4]float64
	FPAvg  [4]float64
}

// Figure2 measures the performance potential of faster loads (paper Fig 2).
func (s *Suite) Figure2() (*Figure2Result, error) {
	runs := []Run{{"base", MBase32}, {"base", MOneCycle}, {"base", MPerfect}, {"base", MOnePerfect}}
	g, err := s.grid(grid{timing: runs})
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{}
	var avg classMeans
	for _, w := range g.workloads {
		var ipc [4]float64
		for i, r := range runs {
			ipc[i] = g.timing(w, r.Toolchain, r.Machine).IPC
		}
		row := Figure2Row{
			Name: w.Name, Class: w.Class,
			Baseline: ipc[0], OneCycle: ipc[1], Perfect: ipc[2], OnePerf: ipc[3],
			Weight: float64(g.timing(w, "base", MBase32).Cycles),
		}
		res.Rows = append(res.Rows, row)
		avg.add(w.Class, row.Weight, ipc[:]...)
	}
	avg.mean(workload.Int, res.IntAvg[:])
	avg.mean(workload.FP, res.FPAvg[:])
	return res, nil
}

// Table renders Figure 2 as text.
func (r *Figure2Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 2: Impact of Load Latency on IPC",
		Headers: []string{"benchmark", "class", "Baseline", "1-Cycle Loads", "Perfect Cache", "1-Cycle+Perfect"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class, stats.F3(row.Baseline), stats.F3(row.OneCycle),
			stats.F3(row.Perfect), stats.F3(row.OnePerf))
	}
	t.AddRow("Int-Avg", "int", stats.F3(r.IntAvg[0]), stats.F3(r.IntAvg[1]), stats.F3(r.IntAvg[2]), stats.F3(r.IntAvg[3]))
	t.AddRow("FP-Avg", "fp", stats.F3(r.FPAvg[0]), stats.F3(r.FPAvg[1]), stats.F3(r.FPAvg[2]), stats.F3(r.FPAvg[3]))
	return t
}

// Figure3Workloads are the representative programs plotted (the paper used
// Gcc, Sc, Doduc, and Spice; these are their analogues in the suite).
var Figure3Workloads = []string{"hashp", "qsortst", "nbody", "sparse"}

// Figure3Series is one cumulative offset distribution.
type Figure3Series struct {
	Benchmark string
	RefType   profile.RefType
	// Cumulative[k] = fraction of that class's loads with a non-negative
	// offset of at most k bits (k = 0..16); More covers >16 bits, Negative
	// the negative offsets.
	Cumulative [17]float64
	Negative   float64
	Share      float64 // class share of all loads
}

// Figure3Result is the full figure.
type Figure3Result struct {
	Series []Figure3Series
}

// Figure3 measures load offset size distributions per addressing class.
func (s *Suite) Figure3() (*Figure3Result, error) {
	g, err := s.grid(grid{workloads: Figure3Workloads, functional: []string{"base"}})
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for _, w := range g.workloads {
		p := g.functional(w, "base").Profile
		for rt := profile.Global; rt < profile.NumRefTypes; rt++ {
			dist := p.CumulativeOffsetDist(rt)
			sr := Figure3Series{Benchmark: w.Name, RefType: rt, Share: p.LoadTypeShare(rt)}
			copy(sr.Cumulative[:], dist[:17])
			total := p.LoadsByType[rt]
			if total > 0 {
				sr.Negative = float64(p.LoadNegOffsets[rt]) / float64(total)
			}
			res.Series = append(res.Series, sr)
		}
	}
	return res, nil
}

// Table renders Figure 3 as text (cumulative percent at selected bit sizes).
func (r *Figure3Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 3: Load Offset Cumulative Distributions (% of class loads)",
		Headers: []string{"benchmark", "class", "share%", "neg%",
			"<=0b", "<=2b", "<=4b", "<=6b", "<=8b", "<=10b", "<=12b", "<=14b", "<=16b"},
	}
	for _, sr := range r.Series {
		t.AddRow(sr.Benchmark, sr.RefType, stats.Pct(sr.Share), stats.Pct(sr.Negative),
			stats.Pct(sr.Cumulative[0]), stats.Pct(sr.Cumulative[2]), stats.Pct(sr.Cumulative[4]),
			stats.Pct(sr.Cumulative[6]), stats.Pct(sr.Cumulative[8]), stats.Pct(sr.Cumulative[10]),
			stats.Pct(sr.Cumulative[12]), stats.Pct(sr.Cumulative[14]), stats.Pct(sr.Cumulative[16]))
	}
	return t
}

// Figure6Row is one benchmark's speedups.
type Figure6Row struct {
	Name  string
	Class workload.Class
	// Speedups over the same-block-size baseline machine running the
	// baseline-toolchain binary.
	HW16   float64 // hardware only, 16B blocks
	HWSW16 float64 // hardware + software, 16B blocks
	HW32   float64
	HWSW32 float64
	// With register+register speculation (32B blocks).
	HW32RR   float64
	HWSW32RR float64
	Weight   float64
}

// Figure6Result is the full figure.
type Figure6Result struct {
	Rows   []Figure6Row
	IntAvg [6]float64
	FPAvg  [6]float64
}

// StandardGrid returns the (toolchain, machine) runs of the paper's
// central speedup figure — the grid every regeneration needs. It is the
// shared definition behind Figure6 and facd -warm, which pre-simulates and
// pins exactly these runs.
func StandardGrid() []Run {
	return []Run{
		{"base", MBase32}, {"base", MBase16},
		{"base", MFAC16}, {"base", MFAC32},
		{"fac", MFAC16}, {"fac", MFAC32},
		{"base", MFAC32RR}, {"fac", MFAC32RR},
	}
}

// Figure6 measures program speedups with and without software support, for
// 16- and 32-byte blocks, with and without register+register speculation.
func (s *Suite) Figure6() (*Figure6Result, error) {
	g, err := s.grid(grid{timing: StandardGrid()})
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{}
	var avg classMeans
	for _, w := range g.workloads {
		cycles := func(tc string, m Machine) float64 { return float64(g.timing(w, tc, m).Cycles) }
		base16, base32 := cycles("base", MBase16), cycles("base", MBase32)
		row := Figure6Row{
			Name: w.Name, Class: w.Class,
			HW16:     base16 / cycles("base", MFAC16),
			HWSW16:   base16 / cycles("fac", MFAC16),
			HW32:     base32 / cycles("base", MFAC32),
			HWSW32:   base32 / cycles("fac", MFAC32),
			HW32RR:   base32 / cycles("base", MFAC32RR),
			HWSW32RR: base32 / cycles("fac", MFAC32RR),
			Weight:   base32,
		}
		res.Rows = append(res.Rows, row)
		avg.add(w.Class, row.Weight, row.HW16, row.HWSW16, row.HW32, row.HWSW32, row.HW32RR, row.HWSW32RR)
	}
	avg.mean(workload.Int, res.IntAvg[:])
	avg.mean(workload.FP, res.FPAvg[:])
	return res, nil
}

// classMeans accumulates a table's Int-Avg and FP-Avg rows: per workload
// class, the mean of each column, weighted by row.
type classMeans struct {
	rows    [2][][]float64
	weights [2][]float64
}

// add records one row of class c with the given weight.
func (a *classMeans) add(c workload.Class, weight float64, cols ...float64) {
	a.rows[c] = append(a.rows[c], cols)
	a.weights[c] = append(a.weights[c], weight)
}

// mean fills out with class c's weighted column means.
func (a *classMeans) mean(c workload.Class, out []float64) {
	for i := range out {
		xs := make([]float64, len(a.rows[c]))
		for j, row := range a.rows[c] {
			xs[j] = row[i]
		}
		out[i] = stats.WeightedMean(xs, a.weights[c])
	}
}

// Table renders Figure 6 as text.
func (r *Figure6Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 6: Speedups over the baseline model",
		Headers: []string{"benchmark", "class",
			"H/W,16B", "H/W+S/W,16B", "H/W,32B", "H/W+S/W,32B", "H/W,32B+RR", "H/W+S/W,32B+RR"},
	}
	add := func(name, class string, v [6]float64) {
		t.AddRow(name, class, stats.F3(v[0]), stats.F3(v[1]), stats.F3(v[2]),
			stats.F3(v[3]), stats.F3(v[4]), stats.F3(v[5]))
	}
	for _, row := range r.Rows {
		add(row.Name, row.Class.String(),
			[6]float64{row.HW16, row.HWSW16, row.HW32, row.HWSW32, row.HW32RR, row.HWSW32RR})
	}
	add("Int-Avg", "int", r.IntAvg)
	add("FP-Avg", "fp", r.FPAvg)
	return t
}
