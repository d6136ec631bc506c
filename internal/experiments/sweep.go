package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepSizes are the data-cache capacities measured by the cache-size
// sensitivity sweep.
var SweepSizes = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10}

// SweepRow holds one benchmark's FAC speedup (hardware+software over the
// matching baseline) at each cache size.
type SweepRow struct {
	Name     string
	Class    workload.Class
	Speedups []float64 // parallel to SweepSizes
	DMiss    []float64 // baseline D-cache miss ratios, parallel to SweepSizes
}

// SweepResult is the full sweep.
type SweepResult struct {
	Sizes []int
	Rows  []SweepRow
}

// sweepConfig builds a machine with the given D-cache size (I-cache held at
// the Table 5 default).
func sweepConfig(size int, facOn bool) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DCache = cache.Config{Size: size, BlockSize: 32, Assoc: 1, MissLatency: 16, MSHRs: 8}
	if facOn {
		cfg.Predictor = "fac"
	}
	return cfg
}

// sweepMachine names a sweep configuration for the memoization cache.
func sweepMachine(size int, facOn bool) Machine {
	if facOn {
		return Machine(fmt.Sprintf("sweep%dk+fac", size>>10))
	}
	return Machine(fmt.Sprintf("sweep%dk", size>>10))
}

// CacheSweep measures FAC's benefit as the data cache grows: the address
// calculation cycle becomes a larger share of load latency as misses
// vanish, so FAC's relative gain should hold or grow with cache size while
// the miss-bound programs converge toward the cache-friendly ones.
func (s *Suite) CacheSweep() (*SweepResult, error) {
	sweep := grid{adhoc: map[Machine]pipeline.Config{}}
	for _, size := range SweepSizes {
		for _, facOn := range []bool{false, true} {
			tc := "base"
			if facOn {
				tc = "fac"
			}
			m := sweepMachine(size, facOn)
			sweep.timing = append(sweep.timing, Run{tc, m})
			sweep.adhoc[m] = sweepConfig(size, facOn)
		}
	}
	g, err := s.grid(sweep)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Sizes: SweepSizes}
	for _, w := range g.workloads {
		row := SweepRow{Name: w.Name, Class: w.Class}
		for _, size := range SweepSizes {
			base := g.timing(w, "base", sweepMachine(size, false))
			facS := g.timing(w, "fac", sweepMachine(size, true))
			row.Speedups = append(row.Speedups, float64(base.Cycles)/float64(facS.Cycles))
			row.DMiss = append(row.DMiss, missRatio(base.DCache))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep as text.
func (r *SweepResult) Table() *stats.Table {
	headers := []string{"benchmark", "class"}
	for _, size := range r.Sizes {
		headers = append(headers, fmt.Sprintf("%dk spd", size>>10), fmt.Sprintf("%dk miss", size>>10))
	}
	t := &stats.Table{
		Title:   "Cache-size sweep: FAC (H/W+S/W) speedup and baseline D-miss ratio",
		Headers: headers,
	}
	for _, row := range r.Rows {
		cells := []interface{}{row.Name, row.Class}
		for i := range r.Sizes {
			cells = append(cells, stats.F3(row.Speedups[i]), stats.F3(row.DMiss[i]))
		}
		t.AddRow(cells...)
	}
	return t
}
