package core

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/prog"
)

const helloAsm = `
	.data
msg:	.asciiz "hi"
	.text
main:
	la $a0, msg
	li $v0, 4
	syscall
	li $v0, 10
	syscall
`

func TestBuildAndRun(t *testing.T) {
	res, err := BuildAndRun(helloAsm, prog.DefaultConfig(), pipeline.DefaultConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "hi" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Stats.Insts == 0 || res.Stats.Cycles == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if res.IPC() <= 0 {
		t.Error("IPC non-positive")
	}
	if res.MemFootprint == 0 {
		t.Error("no memory footprint recorded")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("main:\n\tbogus\n", prog.DefaultConfig()); err == nil {
		t.Error("assembler error not surfaced")
	}
	if _, err := BuildAndRun("main:\n\tbogus\n", prog.DefaultConfig(), pipeline.DefaultConfig(), 0); err == nil {
		t.Error("BuildAndRun error not surfaced")
	}
}

func TestRunFunctionalMatchesTiming(t *testing.T) {
	p, err := Build(helloAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := RunFunctional(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, pipeline.DefaultConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Out.String() != res.Output {
		t.Errorf("functional %q != timing %q", e.Out.String(), res.Output)
	}
	if e.InstCount != res.Stats.Insts {
		t.Errorf("instruction counts differ: %d vs %d", e.InstCount, res.Stats.Insts)
	}
}

func TestRunFaultPropagates(t *testing.T) {
	p, err := Build("main:\n\tli $t0, 3\n\tlw $t1, 0($t0)\n\tjr $ra\n", prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, pipeline.DefaultConfig(), 0); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("fault not propagated: %v", err)
	}
}

func TestBadMachineConfig(t *testing.T) {
	p, err := Build(helloAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range []func(*pipeline.Config){
		func(c *pipeline.Config) { c.FetchWidth = 0 },
		func(c *pipeline.Config) { c.Predictor = "pcax"; c.PredictorEntries = 1000 },
		func(c *pipeline.Config) { c.Predictor = "stride"; c.PredictorTagBits = 31 },
	} {
		cfg := pipeline.DefaultConfig()
		mut(&cfg)
		if _, err := Run(p, cfg, 0); err == nil {
			t.Errorf("invalid machine config %d accepted", i)
		}
	}
}
