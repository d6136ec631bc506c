package experiments

import (
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1Row is one benchmark's reference behaviour (paper Table 1).
type Table1Row struct {
	Name       string
	Class      workload.Class
	Insts      uint64
	Refs       uint64
	LoadPct    float64 // loads as a fraction of instructions
	StorePct   float64
	GlobalPct  float64 // breakdown of loads by reference type
	StackPct   float64
	GeneralPct float64
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 profiles the dynamic reference behaviour of the suite.
func (s *Suite) Table1() (*Table1Result, error) {
	g, err := s.grid(grid{functional: []string{"base"}})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for _, w := range g.workloads {
		p := g.functional(w, "base").Profile
		res.Rows = append(res.Rows, Table1Row{
			Name: w.Name, Class: w.Class,
			Insts:      p.Insts,
			Refs:       p.Loads + p.Stores,
			LoadPct:    safeDiv(p.Loads, p.Insts),
			StorePct:   safeDiv(p.Stores, p.Insts),
			GlobalPct:  p.LoadTypeShare(profile.Global),
			StackPct:   p.LoadTypeShare(profile.Stack),
			GeneralPct: p.LoadTypeShare(profile.General),
		})
	}
	return res, nil
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// missRatio is a run record cache section's miss ratio; a perfect cache
// has no section and no misses.
func missRatio(c *obs.CacheRecord) float64 {
	if c == nil {
		return 0
	}
	return safeDiv(c.Misses, c.Accesses)
}

// Table renders Table 1 as text.
func (r *Table1Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Table 1: Program Reference Behavior",
		Headers: []string{"benchmark", "class", "insts(M)", "refs(M)",
			"%loads", "%stores", "%global", "%stack", "%general"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class, stats.Mil(row.Insts), stats.Mil(row.Refs),
			stats.Pct(row.LoadPct), stats.Pct(row.StorePct),
			stats.Pct(row.GlobalPct), stats.Pct(row.StackPct), stats.Pct(row.GeneralPct))
	}
	return t
}

// Table3Row is one benchmark's baseline statistics and hardware-only
// prediction failure rates (paper Table 3).
type Table3Row struct {
	Name   string
	Class  workload.Class
	Insts  uint64
	Cycles uint64
	Loads  uint64
	Stores uint64
	IMiss  float64
	DMiss  float64
	MemUse uint64
	// Prediction failure rates without software support.
	LoadFail16  float64
	StoreFail16 float64
	LoadFail32  float64
	StoreFail32 float64
}

// Table3Result is the full table.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 measures baseline program statistics and the prediction failure
// rates of the bare hardware mechanism.
func (s *Suite) Table3() (*Table3Result, error) {
	g, err := s.grid(grid{timing: []Run{{"base", MBase32}}, functional: []string{"base"}})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for _, w := range g.workloads {
		fr, tm := g.functional(w, "base"), g.timing(w, "base", MBase32)
		p := fr.Profile
		res.Rows = append(res.Rows, Table3Row{
			Name: w.Name, Class: w.Class,
			Insts: p.Insts, Cycles: tm.Cycles,
			Loads: p.Loads, Stores: p.Stores,
			IMiss: missRatio(tm.ICache), DMiss: missRatio(tm.DCache),
			MemUse:     fr.MemUse,
			LoadFail16: p.LoadFailRate(0), StoreFail16: p.StoreFailRate(0),
			LoadFail32: p.LoadFailRate(1), StoreFail32: p.StoreFailRate(1),
		})
	}
	return res, nil
}

// Table renders Table 3 as text.
func (r *Table3Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Table 3: Program statistics without software support",
		Headers: []string{"benchmark", "insts(M)", "cycles(M)", "loads(M)", "stores(M)",
			"I-miss", "D-miss", "mem", "ldfail%16", "stfail%16", "ldfail%32", "stfail%32"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.Mil(row.Insts), stats.Mil(row.Cycles),
			stats.Mil(row.Loads), stats.Mil(row.Stores),
			stats.F3(row.IMiss), stats.F3(row.DMiss), stats.KB(row.MemUse),
			stats.Pct(row.LoadFail16), stats.Pct(row.StoreFail16),
			stats.Pct(row.LoadFail32), stats.Pct(row.StoreFail32))
	}
	return t
}

// Table4Row is one benchmark's deltas under software support plus the
// remaining prediction failure rates (paper Table 4; 32-byte blocks).
type Table4Row struct {
	Name  string
	Class workload.Class
	// Relative changes of the software-support binary vs the baseline one.
	InstsChg  float64
	CyclesChg float64 // both measured on the baseline (no-FAC) machine
	LoadsChg  float64
	StoresChg float64
	IMissChg  float64 // absolute change in miss ratio
	DMissChg  float64
	DTLBChg   float64 // absolute change in data TLB miss ratio
	MemChg    float64
	// Failure rates with software support, 32-byte blocks.
	LoadFailAll   float64
	LoadFailNoRR  float64
	StoreFailAll  float64
	StoreFailNoRR float64
}

// Table4Result is the full table.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 measures the impact of the compiler/linker software support.
func (s *Suite) Table4() (*Table4Result, error) {
	g, err := s.grid(grid{
		timing:     []Run{{"base", MBase32}, {"fac", MBase32}},
		functional: []string{"base", "fac"},
	})
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, w := range g.workloads {
		base, opt := g.functional(w, "base"), g.functional(w, "fac")
		baseT, optT := g.timing(w, "base", MBase32), g.timing(w, "fac", MBase32)
		p := opt.Profile
		res.Rows = append(res.Rows, Table4Row{
			Name: w.Name, Class: w.Class,
			InstsChg:  rel(opt.Insts, base.Insts),
			CyclesChg: rel(optT.Cycles, baseT.Cycles),
			LoadsChg:  rel(p.Loads, base.Profile.Loads),
			StoresChg: rel(p.Stores, base.Profile.Stores),
			IMissChg:  missRatio(optT.ICache) - missRatio(baseT.ICache),
			DMissChg:  missRatio(optT.DCache) - missRatio(baseT.DCache),
			DTLBChg:   p.DTLBMissRatio() - base.Profile.DTLBMissRatio(),
			MemChg:    rel(opt.MemUse, base.MemUse),
			// Geometry index 1 is the 32-byte-block predictor.
			LoadFailAll:   p.LoadFailRate(1),
			LoadFailNoRR:  p.LoadFailRateNoRR(1),
			StoreFailAll:  p.StoreFailRate(1),
			StoreFailNoRR: p.StoreFailRateNoRR(1),
		})
	}
	return res, nil
}

func rel(after, before uint64) float64 {
	if before == 0 {
		return 0
	}
	return float64(after)/float64(before) - 1
}

// Table renders Table 4 as text.
func (r *Table4Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Table 4: Program statistics with software support (32-byte blocks)",
		Headers: []string{"benchmark", "insts%", "cycles%", "loads%", "stores%",
			"dI-miss", "dD-miss", "dTLB", "mem%", "ldfail(all)", "ldfail(noRR)", "stfail(all)", "stfail(noRR)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			stats.PctSigned(row.InstsChg), stats.PctSigned(row.CyclesChg),
			stats.PctSigned(row.LoadsChg), stats.PctSigned(row.StoresChg),
			stats.F3(row.IMissChg), stats.F3(row.DMissChg), stats.F3(row.DTLBChg), stats.PctSigned(row.MemChg),
			stats.Pct(row.LoadFailAll), stats.Pct(row.LoadFailNoRR),
			stats.Pct(row.StoreFailAll), stats.Pct(row.StoreFailNoRR))
	}
	return t
}

// Table6Row is one benchmark's cache bandwidth overhead (paper Table 6):
// failed speculative accesses as a percentage of total references.
type Table6Row struct {
	Name  string
	Class workload.Class
	// {hardware-only, +software} x {with R+R speculation, without}.
	HWRR   float64
	SWRR   float64
	HWNoRR float64
	SWNoRR float64
}

// Table6Result is the full table.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 measures memory bandwidth overhead due to misspeculated accesses.
func (s *Suite) Table6() (*Table6Result, error) {
	g, err := s.grid(grid{timing: []Run{
		{"base", MFAC32RR}, {"fac", MFAC32RR}, {"base", MFAC32}, {"fac", MFAC32},
	}})
	if err != nil {
		return nil, err
	}
	res := &Table6Result{}
	for _, w := range g.workloads {
		overhead := func(tc string, m Machine) float64 {
			// Every Table 6 machine speculates, so the FAC section is
			// present.
			rec := g.timing(w, tc, m)
			return safeDiv(rec.FAC.ExtraAccesses, rec.Loads+rec.Stores)
		}
		res.Rows = append(res.Rows, Table6Row{
			Name: w.Name, Class: w.Class,
			HWRR:   overhead("base", MFAC32RR),
			SWRR:   overhead("fac", MFAC32RR),
			HWNoRR: overhead("base", MFAC32),
			SWNoRR: overhead("fac", MFAC32),
		})
	}
	return res, nil
}

// Table renders Table 6 as text.
func (r *Table6Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Table 6: Memory bandwidth overhead (failed speculative accesses, % of refs)",
		Headers: []string{"benchmark", "class",
			"HW-only,R+R", "+S/W,R+R", "HW-only,noR+R", "+S/W,noR+R"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Class,
			stats.Pct(row.HWRR), stats.Pct(row.SWRR),
			stats.Pct(row.HWNoRR), stats.Pct(row.SWNoRR))
	}
	return t
}
