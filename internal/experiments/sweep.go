package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
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

// timingWithConfig is Timing for ad-hoc configurations outside the named
// machine table. These runs are memoized and disk-cached like named runs
// but stay out of the exportable report.
func (s *Suite) timingWithConfig(ctx context.Context, w workload.Workload, tc string, m Machine, cfg pipeline.Config) (obs.RunRecord, error) {
	return s.timing(ctx, w, tc, m, cfg, false)
}

// CacheSweep measures FAC's benefit as the data cache grows: the address
// calculation cycle becomes a larger share of load latency as misses
// vanish, so FAC's relative gain should hold or grow with cache size while
// the miss-bound programs converge toward the cache-friendly ones.
func (s *Suite) CacheSweep() (*SweepResult, error) {
	var jobs []job
	for _, w := range workload.All() {
		for _, size := range SweepSizes {
			for _, facOn := range []bool{false, true} {
				w, size, facOn := w, size, facOn
				tc := "base"
				if facOn {
					tc = "fac"
				}
				jobs = append(jobs, func(ctx context.Context) error {
					_, err := s.timingWithConfig(ctx, w, tc, sweepMachine(size, facOn), sweepConfig(size, facOn))
					return err
				})
			}
		}
	}
	if err := runParallel(jobs); err != nil {
		return nil, err
	}

	res := &SweepResult{Sizes: SweepSizes}
	for _, w := range workload.All() {
		row := SweepRow{Name: w.Name, Class: w.Class}
		for _, size := range SweepSizes {
			base, err := s.timingWithConfig(nil, w, "base", sweepMachine(size, false), sweepConfig(size, false))
			if err != nil {
				return nil, err
			}
			facS, err := s.timingWithConfig(nil, w, "fac", sweepMachine(size, true), sweepConfig(size, true))
			if err != nil {
				return nil, err
			}
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
