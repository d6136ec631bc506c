// Quickstart: the fast-address-calculation predictor on the paper's own
// worked examples (Figure 5), followed by a minimal end-to-end run showing
// the load-use stall of Figure 1 disappearing when fast address calculation
// is enabled.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fac"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

func main() {
	// Part 1 — Figure 5: the predictor circuit on the paper's examples.
	// Geometry: 16KB direct-mapped data cache with 16-byte blocks.
	geom := fac.Config{BlockBits: 4, SetBits: 14}
	examples := []struct {
		desc      string
		base, ofs uint32
		isReg     bool
	}{
		{"(a) load r3, 0(r8)     pointer dereference", 0x100400AC, 0, false},
		{"(b) load r3, 2436(gp)  aligned global pointer", 0x10000000, 2436, false},
		{"(c) load r3, 0x66(sp)  small stack offset", 0x7fff5b84, 0x66, false},
		{"(d) load r3, 364(sp)   carry into the set index", 0x7fff5b84, 364, false},
	}
	fmt.Println("Figure 5 — fast address calculation examples (16KB cache, 16B blocks)")
	for _, e := range examples {
		r := geom.Predict(e.base, e.ofs, e.isReg)
		verdict := "PREDICTED"
		if !r.OK {
			verdict = "MISPREDICT (" + r.Failure.String() + ")"
		}
		fmt.Printf("  %-48s base=%08x ofs=%08x -> speculative %08x, actual %08x  %s\n",
			e.desc, e.base, e.ofs, r.Predicted, e.base+e.ofs, verdict)
	}

	// Part 2 — Figure 1: an untolerated load latency, then the same
	// three-instruction sequence with fast address calculation.
	src := `
	.data
v:	.word 7
	.text
main:
	la   $t0, v          # add rx,ry,rz
	lw   $t1, 0($t0)     # load rw,0(rx)
	sub  $a0, $t1, $t1   # sub ra,rb,rw  (depends on the load)
	li   $v0, 10
	syscall
`
	run := func(predictor string) uint64 {
		cfg := pipeline.DefaultConfig()
		cfg.PerfectICache = true
		cfg.PerfectDCache = true
		cfg.Predictor = predictor
		res, err := core.BuildAndRun(src, prog.DefaultConfig(), cfg, 1000)
		if err != nil {
			log.Fatal(err)
		}
		return res.Stats.Cycles
	}
	base, fast := run(""), run("fac")
	fmt.Printf("\nFigure 1 — load-use sequence: %d cycles with 2-cycle loads, %d with fast address calculation (the load-use stall is gone)\n",
		base, fast)
}
