package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workload"
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
	base := runtime.NumGoroutine()
	if _, err := Run(p, pipeline.DefaultConfig(), 0); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("fault not propagated: %v", err)
	}
	waitGoroutines(t, base)
}

func TestBadMachineConfig(t *testing.T) {
	p, err := Build(helloAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range []func(*pipeline.Config){
		func(c *pipeline.Config) { c.FetchWidth = 0 },
		func(c *pipeline.Config) { c.Predictor = "pcax"; c.PredictorEntries = 1000 },
	} {
		cfg := pipeline.DefaultConfig()
		mut(&cfg)
		base := runtime.NumGoroutine()
		if _, err := Run(p, cfg, 0); err == nil {
			t.Errorf("invalid machine config %d accepted", i)
		}
		waitGoroutines(t, base)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base, as it does once RunCtx has joined its producer; a leaked producer
// would keep it above. The producer may still be running its last
// instructions after it signals the join, so the check yields and polls,
// up to a deadline, rather than reading the count once.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the run, want %d: the producer outlived RunCtx", runtime.NumGoroutine(), base)
			return
		}
		runtime.Gosched()
	}
}

// cancelAfter is a sink that cancels its context at the n-th event, so a
// test can cancel a run mid-stream without a timer.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Event(obs.Event) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

// TestRunJoinsProducer: each way a run on the endless program can end
// early returns its cause, with the emulator goroutine joined. The program
// never halts, so only the join stops the producer.
func TestRunJoinsProducer(t *testing.T) {
	endless, err := Build("main:\n\tj main\n", prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, ctx context.Context, maxInsts uint64, sink obs.Sink, want func(error) bool) {
		t.Helper()
		base := runtime.NumGoroutine()
		if _, err := RunCtx(ctx, endless, pipeline.DefaultConfig(), maxInsts, sink); err == nil || !want(err) {
			t.Errorf("%s: err = %v", name, err)
		}
		waitGoroutines(t, base)
	}
	isCanceled := func(err error) bool { return errors.Is(err, context.Canceled) }

	const budget = 3*chunkLen + 5
	check("budget", nil, budget, nil, func(err error) bool {
		return strings.HasPrefix(err.Error(), fmt.Sprintf("emu: instruction budget %d exceeded", budget))
	})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	check("canceled before the run", canceled, 0, nil, isCanceled)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	check("canceled mid-run", ctx, 0, &cancelAfter{n: 20 * chunkLen, cancel: cancel}, isCanceled)
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

// TestRunSteadyStateZeroAllocs is TestSteadyStateZeroAllocs
// (internal/pipeline) through Run: a run 16x longer, over 16x the chunks,
// must allocate exactly as much as a short one, so the ring, its channels
// and the producer goroutine are set-up and no chunk allocates.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"
	run := func(iters int) float64 {
		p, err := Build(fmt.Sprintf(loopAsm, iters), prog.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(p, cfg, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := run(600)
	long := run(9600)
	if long != short {
		t.Errorf("Run allocates per chunk: %.0f allocs for 600 iterations, %.0f for 9600 (want equal)", short, long)
	}
}

// seqSource steps the emulator on the pipeline's own goroutine, one batch
// at a time: the sequential reference the emulate-ahead source must match.
type seqSource struct{ e *emu.Emulator }

func (s seqSource) NextBatch(buf []emu.Trace) (int, error) {
	n := 0
	for n < len(buf) && !s.e.Halted {
		if err := s.e.StepInto(&buf[n]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// eventDigest folds an event stream into its length and an FNV-style
// hash, so two long streams compare without being held in memory.
type eventDigest struct{ n, h uint64 }

func (d *eventDigest) Event(e obs.Event) {
	d.n++
	for _, v := range [...]uint64{uint64(e.Kind), uint64(e.Flags), uint64(e.Cause), uint64(e.Fail),
		e.Cycle, uint64(e.PC), uint64(e.Addr), e.Val} {
		d.h = (d.h ^ v) * 1099511628211
	}
}

type machine struct {
	name string
	cfg  pipeline.Config
}

// testMachines are the machines the emulate-ahead tests run, configured
// as experiments.MachineConfig does (core cannot import experiments,
// which imports core): the baseline, each address-predictor family, and
// the AGI organization.
func testMachines() []machine {
	base := pipeline.DefaultConfig()
	fac, stride, selective, agi := base, base, base, base
	fac.Predictor = "fac"
	stride.Predictor = "stride"
	selective.Predictor = "selective"
	agi.AGI = true
	agi.MispredictPenalty++
	return []machine{{"base32", base}, {"fac32", fac}, {"stride", stride}, {"selective", selective}, {"agi", agi}}
}

// aheadWorkloads are an integer and an FP program that span dozens of
// chunks and end in a partial one, yet stay small enough to run ten times
// under the race detector.
var aheadWorkloads = []workload.Workload{
	{Name: "chase", Source: `
int next[256];
int val[256];

int step(int p, int k) {
	val[p] = (val[p] * 5 + k) & 1023;
	return next[p];
}

int main() {
	int i; int p; int k; int sum;
	srand(11);
	for (i = 0; i < 256; i = i + 1) {
		next[i] = (i * 97 + 13) & 255;
		val[i] = rand() & 1023;
	}
	p = 0;
	for (k = 0; k < 3000; k = k + 1) {
		p = step(p, k);
	}
	sum = 0;
	for (i = 0; i < 256; i = i + 1) {
		sum = sum + val[i];
	}
	print_str("chase ");
	print_int(sum);
	print_char(10);
	return 0;
}
`},
	{Name: "relax", Source: `
double g[16][16];

int main() {
	int i; int j; int it; int scaled;
	double s;
	for (i = 0; i < 16; i = i + 1) {
		for (j = 0; j < 16; j = j + 1) {
			g[i][j] = (i * 16 + j) * 0.01;
		}
	}
	for (it = 0; it < 12; it = it + 1) {
		for (i = 1; i < 15; i = i + 1) {
			for (j = 1; j < 15; j = j + 1) {
				g[i][j] = 0.25 * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
			}
		}
	}
	s = 0.0;
	for (i = 0; i < 16; i = i + 1) {
		s = s + g[i][i];
	}
	scaled = s * 1000.0;
	print_str("relax ");
	print_int(scaled);
	print_char(10);
	return 0;
}
`},
}

// TestEmulateAheadExact runs each program through RunWithSink, whose
// emulator runs ahead on its own goroutine, and through the pipeline fed
// by a sequential emulator, and requires identical results and event
// streams. The programs cover each way a stream can end: inside the
// first chunk (helloAsm), in a partial chunk after dozens of full ones
// (the workloads), and exactly on a chunk boundary (the sized loop),
// where the producer hands over an empty last chunk.
func TestEmulateAheadExact(t *testing.T) {
	type program struct {
		name  string
		p     *prog.Program
		shape func(insts uint64) bool
	}
	build := func(name, src string, shape func(uint64) bool) program {
		p, err := Build(src, prog.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return program{name, p, shape}
	}
	progs := []program{build("hello", helloAsm, func(n uint64) bool { return n < chunkLen })}
	for _, w := range aheadWorkloads {
		p, err := workload.Build(w, workload.BaseToolchain())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{w.Name, p, func(n uint64) bool { return n >= 16*chunkLen && n%chunkLen != 0 }})
	}
	// loopAsm runs a fixed prologue and epilogue around a 5-instruction
	// body; size the loop so the whole run fills a whole number of chunks.
	one, err := RunFunctional(build("loop", fmt.Sprintf(loopAsm, 1), nil).p, 0)
	if err != nil {
		t.Fatal(err)
	}
	iters := uint64(4 * chunkLen)
	for (one.InstCount-5+5*iters)%chunkLen != 0 {
		iters++
	}
	progs = append(progs, build("loop", fmt.Sprintf(loopAsm, iters), func(n uint64) bool { return n%chunkLen == 0 }))

	for _, pr := range progs {
		p := pr.p
		for _, m := range testMachines() {
			what := pr.name + " on " + m.name
			var gotEv, wantEv eventDigest
			got, err := RunWithSink(p, m.cfg, 0, &gotEv)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			cfg := m.cfg.WithStaticTable(p)
			e := emu.New(p)
			st, err := pipeline.RunObserved(cfg, seqSource{e}, &wantEv)
			if err != nil {
				t.Fatalf("%s, sequential: %v", what, err)
			}
			want := Result{Stats: st, Output: e.Out.String(), ExitCode: e.ExitCode, MemFootprint: e.Mem.Footprint()}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: emulate-ahead result differs from sequential:\n got %+v\nwant %+v", what, got, want)
			}
			if gotEv != wantEv {
				t.Errorf("%s: event streams differ: %d events (hash %#x) vs %d (hash %#x)",
					what, gotEv.n, gotEv.h, wantEv.n, wantEv.h)
			}
			if insts := got.Stats.Insts; !pr.shape(insts) {
				t.Errorf("%s runs %d instructions, no longer the chunk shape this test needs", what, insts)
			}
		}
	}
}
