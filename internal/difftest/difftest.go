// Package difftest is the cross-layer differential-testing harness: it
// checks the functional emulator, the timing pipeline, the fast-address-
// calculation predictor, and the binary/text toolchain layers against one
// another on the same program or instruction stream.
//
// Three oracle layers are exposed:
//
//   - CheckImage: every linked instruction must survive encode → decode
//     and disassemble → reassemble unchanged, so the binary and text
//     forms are faithful to the in-memory form.
//   - Reference: the functional emulator executed to completion is the
//     architectural reference — dynamic trace, program output, exit
//     code, and final register file.
//   - Run / RunTrace: the timing pipeline replays the reference stream
//     under several machine configurations while an attached obs.Sink
//     checker verifies the event stream against the run statistics:
//     verified predictions must equal architectural addresses, FAC
//     replays must equal verification failures, and the stall partition
//     must exactly cover the no-issue cycles.
//
// The fuzz targets in this package (FuzzFACPredict, FuzzEncodeDecode,
// FuzzAsmRoundtrip, FuzzEmuVsPipeline) drive these oracles from generated
// inputs; docs/TESTING.md describes how to run and extend them.
package difftest

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

// Machine names one timing configuration the oracle replays a stream under.
type Machine struct {
	Name string
	Cfg  pipeline.Config
}

// Machines returns the oracle's machine set: the paper's baseline plus the
// speculative variants (FAC under 16- and 32-byte block geometries, with
// and without register+register and store speculation, with the tag
// adder), the AGI alternative organization, and the history-based
// prediction machines from internal/predict (pcax, stride, selective).
// Caches are shrunk from the paper's 16KB so short generated programs
// still exercise misses, evictions, MSHR merges, and store-buffer
// pressure; the history tables are shrunk likewise so generated programs
// see tag conflicts and evictions.
func Machines() []Machine {
	shrink := func(c pipeline.Config) pipeline.Config {
		c.ICache = cache.Config{Size: 1 << 10, BlockSize: 32, Assoc: 1, MissLatency: 6}
		c.DCache = cache.Config{Size: 1 << 10, BlockSize: 32, Assoc: 1, MissLatency: 6, MSHRs: 2}
		c.BTBEntries = 16
		c.StoreBufferEntries = 4
		return c
	}
	base := shrink(pipeline.DefaultConfig())

	fac32 := base
	fac32.Predictor = "fac"

	fac16 := fac32
	fac16.FACGeom = fac.Config{BlockBits: 4, SetBits: 10}

	regreg := fac32
	regreg.SpeculateRegReg = true

	nostore := fac32
	nostore.SpeculateStores = false

	tagadder := fac32
	tagadder.FACGeom = fac.Config{BlockBits: 5, SetBits: 10, TagAdder: true}

	agi := base
	agi.AGI = true
	agi.MispredictPenalty++

	ll1 := base
	ll1.LoadLatency = 1

	pcax := base
	pcax.Predictor = "pcax"
	pcax.PredictorEntries = 64

	stride := base
	stride.Predictor = "stride"
	stride.PredictorEntries = 64

	sel := base
	sel.Predictor = "selective"

	return []Machine{
		{"base", base},
		{"fac32", fac32},
		{"fac16", fac16},
		{"fac-regreg", regreg},
		{"fac-nostore", nostore},
		{"fac-tagadder", tagadder},
		{"agi", agi},
		{"loadlat1", ll1},
		{"pcax", pcax},
		{"stride", stride},
		{"selective", sel},
	}
}

// Ref is the functional reference outcome of one program execution.
type Ref struct {
	Trace  []emu.Trace
	Output string
	Exit   int32
	Insts  uint64
	R      [isa.NumRegs]uint32
	F      [isa.NumRegs]float64
	FCC    bool
}

// Reference executes the program to completion on the functional emulator
// and records everything the timing replays are compared against.
func Reference(p *prog.Program, maxInsts uint64) (*Ref, error) {
	e := emu.New(p)
	e.MaxInsts = maxInsts
	var trs []emu.Trace
	for !e.Halted {
		trs = append(trs, emu.Trace{})
		if err := e.StepInto(&trs[len(trs)-1]); err != nil {
			return nil, err
		}
	}
	return &Ref{
		Trace:  trs,
		Output: e.Out.String(),
		Exit:   e.ExitCode,
		Insts:  e.InstCount,
		R:      e.R,
		F:      e.F,
		FCC:    e.FCC,
	}, nil
}

// CheckImage verifies the fidelity of a linked program's alternate
// representations: every instruction must encode at its final address,
// decode back to itself (binary fixpoint), and the full disassembly must
// reassemble to the identical instruction sequence (text fixpoint).
func CheckImage(p *prog.Program) error {
	var b strings.Builder
	b.WriteString(".text\n")
	for i, in := range p.Insts {
		pc := p.TextBase + uint32(i)*isa.InstBytes
		w, err := isa.Encode(in, pc)
		if err != nil {
			return fmt.Errorf("difftest: pc %#x: %v does not encode: %v", pc, in, err)
		}
		back, err := isa.Decode(w, pc)
		if err != nil {
			return fmt.Errorf("difftest: pc %#x: %#08x does not decode: %v", pc, w, err)
		}
		if back != in {
			return fmt.Errorf("difftest: pc %#x: decode(encode(%v)) = %v", pc, in, back)
		}
		if i < len(p.Words) && p.Words[i] != w {
			return fmt.Errorf("difftest: pc %#x: image word %#08x != re-encoding %#08x", pc, p.Words[i], w)
		}
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	o, err := asm.Assemble(b.String())
	if err != nil {
		return fmt.Errorf("difftest: disassembly does not reassemble: %v", err)
	}
	if len(o.Text) != len(p.Insts) {
		return fmt.Errorf("difftest: disassembly reassembled to %d insts, want %d", len(o.Text), len(p.Insts))
	}
	for i, in := range o.Text {
		if in != p.Insts[i] {
			pc := p.TextBase + uint32(i)*isa.InstBytes
			return fmt.Errorf("difftest: pc %#x: reassembled %q = %v, want %v",
				pc, p.Insts[i].String(), in, p.Insts[i])
		}
	}
	return nil
}

// emuSource feeds a live emulator to the pipeline sequentially, stepping
// it on the pipeline's goroutine. Production runs (core.RunCtx) emulate
// ahead on a second goroutine; core's TestEmulateAheadExact holds the two
// equal.
type emuSource struct{ e *emu.Emulator }

func (s emuSource) NextBatch(buf []emu.Trace) (int, error) {
	n := 0
	for n < len(buf) && !s.e.Halted {
		if err := s.e.StepInto(&buf[n]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Run executes the program on the functional emulator and replays it
// through the timing pipeline under every default machine, checking the
// image fixpoints, architectural state equivalence across machines, and
// the per-machine event-stream invariants. maxInsts bounds runaway
// programs (0 = no limit).
func Run(p *prog.Program, maxInsts uint64) error {
	return RunMachines(p, maxInsts, Machines())
}

// RunMachines is Run restricted to an explicit machine set.
func RunMachines(p *prog.Program, maxInsts uint64, machines []Machine) error {
	if err := CheckImage(p); err != nil {
		return err
	}
	ref, err := Reference(p, maxInsts)
	if err != nil {
		return fmt.Errorf("difftest: reference run: %v", err)
	}
	static := newStaticOracle(p)
	for _, m := range machines {
		e := emu.New(p)
		e.MaxInsts = maxInsts
		m.Cfg = m.Cfg.WithStaticTable(p)
		ck := newChecker(m)
		sink := obs.Sink(ck)
		var sites *obs.SiteCollector
		// The static oracle cross-checks per-site outcomes against the
		// operand-based FAC algebra; history machines (pcax, stride) guess
		// from past addresses, so only fac-shaped machines are checked.
		if name := m.Cfg.Predictor; name == "fac" || name == "selective" {
			sites = obs.NewSiteCollector()
			sink = obs.Tee{ck, sites}
		}
		st, err := pipeline.RunObserved(m.Cfg, emuSource{e}, sink)
		if err != nil {
			return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
		}
		if err := compareArch(ref, e); err != nil {
			return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
		}
		if err := ck.verify(st, refCounts(ref.Trace)); err != nil {
			return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
		}
		if sites != nil {
			if err := static.check(m.Cfg.FACGeometry(), sites); err != nil {
				return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
			}
		}
	}
	return nil
}

// RunTrace replays a raw dynamic instruction stream (no program or
// emulator behind it) through every machine, checking the event-stream
// invariants. It is the oracle behind generated-trace fuzzing.
func RunTrace(trs []emu.Trace, machines []Machine) error {
	counts := refCounts(trs)
	for _, m := range machines {
		// A selective machine with no program behind the trace runs with an
		// empty verdict table (pipeline defaults it): plain FAC behaviour.
		ck := newChecker(m)
		st, err := pipeline.RunObserved(m.Cfg, NewSliceSource(trs), ck)
		if err != nil {
			return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
		}
		if err := ck.verify(st, counts); err != nil {
			return fmt.Errorf("difftest: machine %s: %v", m.Name, err)
		}
	}
	return nil
}

// streamCounts are instruction-class counts a replay must reproduce.
type streamCounts struct {
	insts, loads, stores, controls uint64
}

func refCounts(trs []emu.Trace) streamCounts {
	var c streamCounts
	c.insts = uint64(len(trs))
	for _, tr := range trs {
		switch {
		case tr.Inst.Op.IsLoad():
			c.loads++
		case tr.Inst.Op.IsStore():
			c.stores++
		}
		if tr.Inst.Op.IsControl() {
			c.controls++
		}
	}
	return c
}

// compareArch checks that a pipeline-driven emulator finished in exactly
// the reference architectural state: timing replay must never perturb
// architecture.
func compareArch(ref *Ref, e *emu.Emulator) error {
	if !e.Halted {
		return fmt.Errorf("emulator did not run to completion (%d/%d insts)", e.InstCount, ref.Insts)
	}
	if e.InstCount != ref.Insts {
		return fmt.Errorf("executed %d insts, reference executed %d", e.InstCount, ref.Insts)
	}
	if e.ExitCode != ref.Exit {
		return fmt.Errorf("exit code %d, reference %d", e.ExitCode, ref.Exit)
	}
	if got := e.Out.String(); got != ref.Output {
		return fmt.Errorf("output %q, reference %q", got, ref.Output)
	}
	if e.R != ref.R {
		return fmt.Errorf("final integer register file diverged: %v vs %v", e.R, ref.R)
	}
	for i := range e.F {
		if math.Float64bits(e.F[i]) != math.Float64bits(ref.F[i]) {
			return fmt.Errorf("final $f%d = %v, reference %v", i, e.F[i], ref.F[i])
		}
	}
	if e.FCC != ref.FCC {
		return fmt.Errorf("final FP condition flag %v, reference %v", e.FCC, ref.FCC)
	}
	return nil
}
