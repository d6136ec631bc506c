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
	machines := [][2]string{
		{"base", string(MBase32)}, {"base", string(MOneCycle)},
		{"base", string(MPerfect)}, {"base", string(MOnePerfect)},
	}
	if err := s.Prefetch(machines); err != nil {
		return nil, err
	}
	res := &Figure2Result{}
	var ints, fps []Figure2Row
	for _, w := range workload.All() {
		var ipc [4]float64
		var weight float64
		for i, m := range []Machine{MBase32, MOneCycle, MPerfect, MOnePerfect} {
			st, err := s.Timing(w, "base", m)
			if err != nil {
				return nil, err
			}
			ipc[i] = st.IPC
			if m == MBase32 {
				weight = float64(st.Cycles)
			}
		}
		row := Figure2Row{
			Name: w.Name, Class: w.Class,
			Baseline: ipc[0], OneCycle: ipc[1], Perfect: ipc[2], OnePerf: ipc[3],
			Weight: weight,
		}
		res.Rows = append(res.Rows, row)
		if w.Class == workload.Int {
			ints = append(ints, row)
		} else {
			fps = append(fps, row)
		}
	}
	avg := func(rows []Figure2Row) [4]float64 {
		var xs [4][]float64
		var ws []float64
		for _, r := range rows {
			xs[0] = append(xs[0], r.Baseline)
			xs[1] = append(xs[1], r.OneCycle)
			xs[2] = append(xs[2], r.Perfect)
			xs[3] = append(xs[3], r.OnePerf)
			ws = append(ws, r.Weight)
		}
		var out [4]float64
		for i := range xs {
			out[i] = stats.WeightedMean(xs[i], ws)
		}
		return out
	}
	res.IntAvg = avg(ints)
	res.FPAvg = avg(fps)
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
	res := &Figure3Result{}
	for _, name := range Figure3Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		fr, err := s.Functional(w, "base")
		if err != nil {
			return nil, err
		}
		for rt := profile.Global; rt < profile.NumRefTypes; rt++ {
			dist := fr.Profile.CumulativeOffsetDist(rt)
			sr := Figure3Series{Benchmark: name, RefType: rt, Share: fr.Profile.LoadTypeShare(rt)}
			copy(sr.Cumulative[:], dist[:17])
			total := fr.Profile.LoadsByType[rt]
			if total > 0 {
				sr.Negative = float64(fr.Profile.LoadNegOffsets[rt]) / float64(total)
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

func (s *Suite) speedup(w workload.Workload, tc string, m Machine, baseM Machine) (float64, error) {
	base, err := s.Timing(w, "base", baseM)
	if err != nil {
		return 0, err
	}
	run, err := s.Timing(w, tc, m)
	if err != nil {
		return 0, err
	}
	return float64(base.Cycles) / float64(run.Cycles), nil
}

// StandardGrid returns the (toolchain, machine) pairs of the paper's
// central speedup figure — the grid every regeneration needs. It is the
// shared definition behind Figure6's prefetch, facd -warm (which
// pre-simulates and pins exactly these runs), and the fleet soak.
func StandardGrid() [][2]string {
	return [][2]string{
		{"base", string(MBase32)}, {"base", string(MBase16)},
		{"base", string(MFAC16)}, {"base", string(MFAC32)},
		{"fac", string(MFAC16)}, {"fac", string(MFAC32)},
		{"base", string(MFAC32RR)}, {"fac", string(MFAC32RR)},
	}
}

// Figure6 measures program speedups with and without software support, for
// 16- and 32-byte blocks, with and without register+register speculation.
func (s *Suite) Figure6() (*Figure6Result, error) {
	if err := s.Prefetch(StandardGrid()); err != nil {
		return nil, err
	}
	res := &Figure6Result{}
	var ints, fps []Figure6Row
	for _, w := range workload.All() {
		row := Figure6Row{Name: w.Name, Class: w.Class}
		var err error
		if row.HW16, err = s.speedup(w, "base", MFAC16, MBase16); err != nil {
			return nil, err
		}
		if row.HWSW16, err = s.speedup(w, "fac", MFAC16, MBase16); err != nil {
			return nil, err
		}
		if row.HW32, err = s.speedup(w, "base", MFAC32, MBase32); err != nil {
			return nil, err
		}
		if row.HWSW32, err = s.speedup(w, "fac", MFAC32, MBase32); err != nil {
			return nil, err
		}
		if row.HW32RR, err = s.speedup(w, "base", MFAC32RR, MBase32); err != nil {
			return nil, err
		}
		if row.HWSW32RR, err = s.speedup(w, "fac", MFAC32RR, MBase32); err != nil {
			return nil, err
		}
		base, err := s.Timing(w, "base", MBase32)
		if err != nil {
			return nil, err
		}
		row.Weight = float64(base.Cycles)
		res.Rows = append(res.Rows, row)
		if w.Class == workload.Int {
			ints = append(ints, row)
		} else {
			fps = append(fps, row)
		}
	}
	avg := func(rows []Figure6Row) [6]float64 {
		var xs [6][]float64
		var ws []float64
		for _, r := range rows {
			xs[0] = append(xs[0], r.HW16)
			xs[1] = append(xs[1], r.HWSW16)
			xs[2] = append(xs[2], r.HW32)
			xs[3] = append(xs[3], r.HWSW32)
			xs[4] = append(xs[4], r.HW32RR)
			xs[5] = append(xs[5], r.HWSW32RR)
			ws = append(ws, r.Weight)
		}
		var out [6]float64
		for i := range xs {
			out[i] = stats.WeightedMean(xs[i], ws)
		}
		return out
	}
	res.IntAvg = avg(ints)
	res.FPAvg = avg(fps)
	return res, nil
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
