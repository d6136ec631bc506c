package profile

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/prog"
)

func TestClassify(t *testing.T) {
	if Classify(isa.GP) != Global || Classify(isa.SP) != Stack ||
		Classify(isa.FP) != Stack || Classify(isa.T0) != General {
		t.Error("classification wrong")
	}
	if Global.String() != "global" || Stack.String() != "stack" || General.String() != "general" {
		t.Error("strings wrong")
	}
}

func TestOffsetBucket(t *testing.T) {
	cases := map[uint32]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 32767: 15}
	for v, want := range cases {
		if got := offsetBucket(v); got != want {
			t.Errorf("offsetBucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func mkTrace(op isa.Op, base isa.Reg, baseVal, ofs uint32, isReg bool) *emu.Trace {
	in := isa.Inst{Op: op, Rs: base}
	pre := isa.Predecode(in)
	return &emu.Trace{
		Inst:        in,
		Pre:         &pre,
		Base:        baseVal,
		Offset:      ofs,
		EffAddr:     baseVal + ofs,
		IsRegOffset: isReg,
	}
}

func TestNoteAccounting(t *testing.T) {
	geo := fac.Config{BlockBits: 5, SetBits: 14}
	p := New(geo)
	// gp load, zero offset: predicts.
	p.Note(mkTrace(isa.LW, isa.GP, 0x10000000, 0, false))
	// sp load, offset 0x66 from misaligned base: predicts (Fig 5c).
	p.Note(mkTrace(isa.LW, isa.SP, 0x7fff5b84, 0x66, false))
	// sp load, offset 364: fails (Fig 5d with 32B blocks? offset 364 still
	// conflicts: base bit pattern collides in the index field).
	p.Note(mkTrace(isa.LW, isa.SP, 0x7fff5b84, 364, false))
	// general reg+reg store, negative index: fails.
	p.Note(mkTrace(isa.SWX, isa.T0, 0x1000, 0xFFFFFFF0, true))
	// general store via pointer: predicts.
	p.Note(mkTrace(isa.SW, isa.T1, 0x2000, 0, false))
	// non-memory instruction.
	p.Note(mkTrace(isa.ADD, isa.T0, 0, 0, false))

	pr := &p.P
	if pr.Insts != 6 || pr.Loads != 3 || pr.Stores != 2 {
		t.Fatalf("counts: %+v", pr)
	}
	if pr.LoadsByType[Global] != 1 || pr.LoadsByType[Stack] != 2 || pr.LoadsByType[General] != 0 {
		t.Errorf("load types: %v", pr.LoadsByType)
	}
	if pr.StoresByType[General] != 2 {
		t.Errorf("store types: %v", pr.StoresByType)
	}
	if pr.StoresRR != 1 || pr.LoadsRR != 0 {
		t.Errorf("RR counts: %d %d", pr.StoresRR, pr.LoadsRR)
	}
	g := pr.Geoms[0]
	if g.LoadFails != 1 || g.StoreFails != 1 {
		t.Errorf("fails: %+v", g)
	}
	if g.StoreFailsNoRR != 0 {
		t.Errorf("NoRR store fails: %d", g.StoreFailsNoRR)
	}
	if got := pr.LoadFailRate(0); got != 1.0/3 {
		t.Errorf("LoadFailRate = %v", got)
	}
	if got := pr.StoreFailRateNoRR(0); got != 0 {
		t.Errorf("StoreFailRateNoRR = %v", got)
	}
	if got := pr.LoadTypeShare(Stack); got != 2.0/3 {
		t.Errorf("LoadTypeShare = %v", got)
	}
}

func TestCumulativeOffsetDist(t *testing.T) {
	p := New()
	// 2 zero offsets, 1 offset of 3 bits, 1 negative.
	p.Note(mkTrace(isa.LW, isa.T0, 0x1000, 0, false))
	p.Note(mkTrace(isa.LW, isa.T0, 0x1000, 0, false))
	p.Note(mkTrace(isa.LW, isa.T0, 0x1000, 4, false))
	p.Note(mkTrace(isa.LW, isa.T0, 0x1000, 0xFFFFFFFC, false))
	d := p.P.CumulativeOffsetDist(General)
	if d[0] != 0.5 {
		t.Errorf("cum[0] = %v, want 0.5", d[0])
	}
	if d[2] != 0.5 || d[3] != 0.75 {
		t.Errorf("cum[2..3] = %v %v", d[2], d[3])
	}
	if d[32] != 0.75 { // negatives never enter the cumulative curve
		t.Errorf("cum[32] = %v", d[32])
	}
	if p.P.LoadNegOffsets[General] != 1 {
		t.Errorf("neg offsets = %d", p.P.LoadNegOffsets[General])
	}
}

func TestRunOnProgram(t *testing.T) {
	src := `
	.sdata
g:	.word 5
	.text
main:
	lw  $t0, g          # global-pointer load
	lw  $t1, 8($sp)     # stack load
	la  $t2, g
	lw  $t3, 0($t2)     # general load, zero offset
	sw  $t3, 4($sp)
	jr  $ra
`
	o, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Link(o, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, e, err := Run(p, 1000, fac.Config{BlockBits: 5, SetBits: 14})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted {
		t.Error("program did not halt")
	}
	if prof.Loads != 3 || prof.Stores != 1 {
		t.Errorf("loads=%d stores=%d", prof.Loads, prof.Stores)
	}
	if prof.LoadsByType[Global] != 1 || prof.LoadsByType[Stack] != 1 || prof.LoadsByType[General] != 1 {
		t.Errorf("types: %v", prof.LoadsByType)
	}
}

func TestZeroDenominators(t *testing.T) {
	p := New(fac.Config{BlockBits: 5, SetBits: 14})
	if p.P.LoadFailRate(0) != 0 || p.P.StoreFailRate(0) != 0 ||
		p.P.LoadFailRateNoRR(0) != 0 || p.P.LoadTypeShare(Global) != 0 {
		t.Error("zero-denominator rates not zero")
	}
	d := p.P.CumulativeOffsetDist(Stack)
	if d[32] != 0 {
		t.Error("empty distribution not zero")
	}
}

// loopAsm runs a load-increment-store loop for a given number of
// iterations, touching the same data page however long it runs.
const loopAsm = `
	.data
buf:	.space 8
	.text
main:
	li $t0, %d
	la $t1, buf
loop:
	lw $t2, 0($t1)
	addi $t2, $t2, 1
	sw $t2, 0($t1)
	addi $t0, $t0, -1
	bne $t0, $zero, loop
	li $v0, 10
	syscall
`

// TestRunSteadyStateZeroAllocs: a profiled run 16x longer must allocate
// exactly as much as a short one, so the profiler, its TLB and the
// emulator allocate only at set-up, never per instruction or access.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	geoms := []fac.Config{{BlockBits: 4, SetBits: 14}, {BlockBits: 5, SetBits: 14}, {BlockBits: 5, SetBits: 14, TagAdder: true}}
	run := func(iters int) float64 {
		o, err := asm.Assemble(fmt.Sprintf(loopAsm, iters))
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.Link(o, prog.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := Run(p, 0, geoms...); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := run(600)
	long := run(9600)
	if long != short {
		t.Errorf("Run allocates per access: %.0f allocs for 600 iterations, %.0f for 9600 (want equal)", short, long)
	}
}
