// Speedup: one benchmark measured the way the paper's Figure 6 measures it
// — baseline machine, hardware-only fast address calculation, and hardware
// plus the Section 4 compiler/linker support — with the Table 6 bandwidth
// overhead for each configuration.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	name := flag.String("benchmark", "qsortst", "workload to measure")
	flag.Parse()

	w, err := workload.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	baseProg, err := workload.Build(w, workload.BaseToolchain())
	if err != nil {
		log.Fatal(err)
	}
	facProg, err := workload.Build(w, workload.FACToolchain())
	if err != nil {
		log.Fatal(err)
	}

	baseCfg := pipeline.DefaultConfig()
	facCfg := baseCfg
	facCfg.Predictor = "fac"

	baseline, err := core.Run(baseProg, baseCfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	hw, err := core.Run(baseProg, facCfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	hwsw, err := core.Run(facProg, facCfg, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s (%s)\n", w.Name, w.Analogue)
	fmt.Printf("output: %s", baseline.Output)
	fmt.Printf("\n%-28s %12s %8s %9s %10s %10s\n", "configuration", "cycles", "IPC", "speedup", "load-fail", "bandwidth")
	row := func(name string, r core.Result) {
		fmt.Printf("%-28s %12d %8.3f %9.3f %9.1f%% %9.1f%%\n",
			name, r.Stats.Cycles, r.IPC(),
			float64(baseline.Stats.Cycles)/float64(r.Stats.Cycles),
			100*r.Stats.LoadFailRate(), 100*r.Stats.BandwidthOverhead())
	}
	row("baseline (2-cycle loads)", baseline)
	row("fast address calc (H/W)", hw)
	row("fast address calc (H/W+S/W)", hwsw)
}
