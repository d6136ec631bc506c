package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/ltb"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics is the traced run's output, in print order. README.md
// says which end-to-end metric each should move on which workload.
var layerMetrics = []layerMetric{
	{"emu.minsts_per_s", "Minst/s"},
	{"emu.share", "ratio"},
	{"pipeline.minsts_per_s", "Minst/s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.share", "ratio"},
	{"predict.fac.ns_per_access", "ns"},
	{"predict.stride.ns_per_access", "ns"},
	{"cache.ns_per_access", "ns"},
	{"bpred.ns_per_branch", "ns"},
	{"pipeline.cycles", "count"},
	{"pipeline.stall_ratio", "ratio"},
	{"cache.dcache_miss_ratio", "ratio"},
	{"predict.fac.fail_ratio", "ratio"},
	{"predict.stride.fail_ratio", "ratio"},
	{"sim.allocs_per_op", "allocs/op"},
	{"profile.minsts_per_s", "Minst/s"},
	{"emu.step_minsts_per_s", "Minst/s"},
	{"ltb.ns_per_load", "ns"},
	{"prog.build_ms", "ms"},
	{"regen.allocs_per_op", "allocs/op"},
	{"regen.gc_per_op", "gc/op"},
	{"minic.compile_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"prog.link_ms", "ms"},
	{"staticfac.analyze_ms", "ms"},
	{"staticfac.allocs_per_op", "allocs/op"},
	{"staticfac.gc_per_op", "gc/op"},
	{"staticfac.report_ms", "ms"},
	{"staticfac.classified_ratio", "ratio"},
	{"simsvc.key_us", "us"},
	{"simsvc.get_us", "us"},
	{"obs.record_json_us", "us"},
	{"simsvc.put_us", "us"},
	{"simsvc.http_self_us", "us"},
	{"simsvc.hit_ratio", "ratio"},
	{"simsvc.evictions", "count"},
	{"client.p50_ms", "ms"},
	{"client.tail_ms", "ms"},
	{"client.tail_pct", "%"},
	{"client.samples", "count"},
	{"client.failed", "count"},
	{"client.trace_overhead", "ratio"},
}

const (
	// ledgerReps repeats each millisecond-scale layer call; the minimum is
	// kept. Microsecond-scale calls repeat microReps times.
	ledgerReps = 3
	microReps  = 200
	// serviceRequests is the fixed request count of the ledger's service
	// mix, drawn with serviceSeed.
	serviceRequests = 300
	serviceSeed     = 1
)

// ledger times each layer's public functions from outside, on the given
// programs, and returns every layer metric but the client ones. It runs
// only in traced runs: the recorded traces and replay streams it holds
// would otherwise inflate the untraced peak_rss_mb.
func ledger(progs []string, dir string, g *goldens) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, layer := range []func() error{
		func() error { return simLayers(progs, m) },
		func() error { return regenLayers(progs, m) },
		func() error { return analyzeLayers(progs, m) },
		func() error { return serviceLayers(dir, g, m) },
	} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// keep holds replay results so the compiler cannot drop the work.
var keep uint64

// access is one data-memory access of a recorded trace.
type access struct {
	pc, base, ofs, eff uint32
	reg, store         bool
}

// branch is one control transfer of a recorded trace.
type branch struct {
	pc, target uint32
	taken      bool
}

// replay feeds the pipeline from a recorded trace, so the emulator's cost
// drops out of the timing.
type replay struct {
	tr  []emu.Trace
	pos int
}

func (r *replay) Next() (emu.Trace, bool, error) {
	if r.pos >= len(r.tr) {
		return emu.Trace{}, false, nil
	}
	r.pos++
	return r.tr[r.pos-1], true, nil
}

func (r *replay) NextBatch(buf []emu.Trace) (int, error) {
	n := copy(buf, r.tr[r.pos:])
	r.pos += n
	return n, nil
}

// record runs p on the emulator and keeps every trace record.
func record(p *prog.Program, capacity uint64) ([]emu.Trace, error) {
	e := emu.New(p)
	out := make([]emu.Trace, 0, capacity)
	for !e.Halted {
		out = append(out, emu.Trace{})
		if err := e.StepInto(&out[len(out)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streams extracts the access and branch streams of a trace.
func streams(trace []emu.Trace) ([]access, []branch) {
	var accs []access
	var brs []branch
	for i := range trace {
		t := &trace[i]
		switch op := t.Inst.Op; {
		case op.IsMem():
			accs = append(accs, access{t.PC, t.Base, t.Offset, t.EffAddr, t.IsRegOffset, op.IsStore()})
		case op.IsControl():
			brs = append(brs, branch{t.PC, t.NextPC, t.NextPC != t.PC+isa.InstBytes})
		}
	}
	return accs, brs
}

func replayPredictor(name string, accs []access) error {
	p, err := predict.New(name, predict.Options{Geom: experiments.Geo32})
	if err != nil {
		return err
	}
	var sum uint32
	for _, a := range accs {
		sum += p.Predict(a.pc, a.base, a.ofs, a.reg).Addr
		p.Train(a.pc, a.eff)
	}
	keep += uint64(sum)
	return nil
}

func replayCache(accs []access) error {
	c := cache.New(pipeline.DefaultConfig().DCache)
	var now uint64
	for _, a := range accs {
		now += 2
		for {
			r := c.Access(a.eff, a.store, now)
			if !r.MSHRFull {
				break
			}
			now = r.Ready
		}
	}
	keep += c.Stats().Misses
	return nil
}

func replayBTB(brs []branch) error {
	b := bpred.New(pipeline.DefaultConfig().BTBEntries)
	for _, br := range brs {
		b.Predict(br.pc)
		b.Update(br.pc, br.taken, br.target)
	}
	_, mis := b.Counts()
	keep += mis
	return nil
}

// allocsOf runs f once and returns the heap allocations and GC cycles it
// caused.
func allocsOf(f func() error) (allocs, gcs float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.NumGC - a.NumGC), err
}

func buildBase(name string) (*prog.Program, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Build(w, workload.BaseToolchain())
}

// simLayers measures the emulator, the timing model fed from a recorded
// trace, the predictors, the data cache and the branch predictor.
func simLayers(progs []string, m map[string]float64) error {
	var emuOnly, emuT, coreT, pipeT, facT, strideT, cacheT, btbT time.Duration
	var emuInsts, pipeInsts, cycles, stalls, dAcc, dMiss, nAcc, nBr uint64
	var allocs float64
	fails := map[string][2]uint64{} // predictor -> {fails, speculated}
	for _, name := range progs {
		p, err := buildBase(name)
		if err != nil {
			return err
		}
		var insts uint64
		de, err := fastest(ledgerReps, func() error {
			e, err := core.RunFunctional(p, 0)
			insts = e.InstCount
			return err
		})
		if err != nil {
			return err
		}
		emuOnly += de
		emuInsts += insts
		trace, err := record(p, insts)
		if err != nil {
			return err
		}
		for _, mach := range simMachines {
			cfg, err := resolve(mach)
			if err != nil {
				return err
			}
			var res core.Result
			dc, err := fastest(ledgerReps, func() (err error) {
				res, err = core.Run(p, cfg, 0)
				return err
			})
			if err != nil {
				return err
			}
			var st pipeline.Stats
			dp, err := fastest(ledgerReps, func() (err error) {
				st, err = pipeline.Run(cfg, &replay{tr: trace})
				return err
			})
			if err != nil {
				return err
			}
			if st.Cycles != res.Stats.Cycles {
				return fmt.Errorf("%s/%s: replay took %d cycles, core.Run %d", name, mach, st.Cycles, res.Stats.Cycles)
			}
			emuT += de
			coreT += dc
			pipeT += dp
			pipeInsts += st.Insts
			cycles += st.Cycles
			stalls += st.StallTotal()
			dAcc += st.DCache.Accesses
			dMiss += st.DCache.Misses
			if st.Predictor != "" {
				f := fails[st.Predictor]
				f[0] += st.LoadSpecFailed + st.StoreSpecFailed
				f[1] += st.LoadsSpeculated + st.StoresSpeculated
				fails[st.Predictor] = f
			}
		}
		cfg, err := resolve("base32")
		if err != nil {
			return err
		}
		a, _, err := allocsOf(func() error {
			_, err := core.Run(p, cfg, 0)
			return err
		})
		if err != nil {
			return err
		}
		allocs += a
		accs, brs := streams(trace)
		trace = nil
		for _, pr := range []struct {
			name string
			t    *time.Duration
		}{{"fac", &facT}, {"stride", &strideT}} {
			d, err := fastest(ledgerReps, func() error { return replayPredictor(pr.name, accs) })
			if err != nil {
				return err
			}
			*pr.t += d
		}
		dc, _ := fastest(ledgerReps, func() error { return replayCache(accs) })
		db, _ := fastest(ledgerReps, func() error { return replayBTB(brs) })
		cacheT += dc
		btbT += db
		nAcc += uint64(len(accs))
		nBr += uint64(len(brs))
	}
	m["emu.minsts_per_s"] = float64(emuInsts) / emuOnly.Seconds() / 1e6
	m["emu.share"] = float64(emuT) / float64(coreT)
	m["pipeline.minsts_per_s"] = float64(pipeInsts) / pipeT.Seconds() / 1e6
	m["pipeline.ns_per_cycle"] = float64(pipeT) / float64(cycles)
	m["pipeline.share"] = float64(pipeT) / float64(coreT)
	m["predict.fac.ns_per_access"] = float64(facT) / float64(nAcc)
	m["predict.stride.ns_per_access"] = float64(strideT) / float64(nAcc)
	m["cache.ns_per_access"] = float64(cacheT) / float64(nAcc)
	m["bpred.ns_per_branch"] = float64(btbT) / float64(nBr)
	m["pipeline.cycles"] = float64(cycles)
	m["pipeline.stall_ratio"] = float64(stalls) / float64(cycles)
	m["cache.dcache_miss_ratio"] = float64(dMiss) / float64(dAcc)
	m["predict.fac.fail_ratio"] = ratio(fails["fac"])
	m["predict.stride.fail_ratio"] = ratio(fails["stride"])
	m["sim.allocs_per_op"] = allocs / float64(len(progs))
	return nil
}

func ratio(f [2]uint64) float64 {
	if f[1] == 0 {
		return 0
	}
	return float64(f[0]) / float64(f[1])
}

// regenLayers measures what CompareLTB is made of: builds, profile passes,
// emu.Step replays and LTB lookups, plus one cold CompareLTB's
// allocations and GC cycles.
func regenLayers(progs []string, m map[string]float64) error {
	var buildT, profT, stepT, ltbT time.Duration
	var insts, loads uint64
	for _, name := range progs {
		var p *prog.Program
		db, err := fastest(ledgerReps, func() (err error) {
			p, err = buildBase(name)
			return err
		})
		if err != nil {
			return err
		}
		var n uint64
		dp, err := fastest(ledgerReps, func() error {
			_, e, err := profile.Run(p, simsvc.DefaultMaxInsts, experiments.Geo16, experiments.Geo32)
			n = e.InstCount
			return err
		})
		if err != nil {
			return err
		}
		var stream []access
		ds, err := fastest(ledgerReps, func() error {
			stream = stream[:0]
			e := emu.New(p)
			for !e.Halted {
				tr, err := e.Step()
				if err != nil {
					return err
				}
				if tr.Inst.Op.IsLoad() {
					stream = append(stream, access{pc: tr.PC, eff: tr.EffAddr})
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		dl, _ := fastest(ledgerReps, func() error {
			last := ltb.New(ltb.Config{Entries: 1024})
			stride := ltb.New(ltb.Config{Entries: 1024, Stride: true})
			for _, a := range stream {
				last.Access(a.pc, a.eff)
				stride.Access(a.pc, a.eff)
			}
			keep += uint64(last.Accuracy()*1e6 + stride.Accuracy()*1e6)
			return nil
		})
		buildT += db
		profT += dp
		stepT += ds
		ltbT += dl
		insts += n
		loads += uint64(len(stream))
	}
	allocs, gcs, err := allocsOf(func() error {
		_, err := experiments.NewSuite().CompareLTB()
		return err
	})
	if err != nil {
		return err
	}
	m["profile.minsts_per_s"] = float64(insts) / profT.Seconds() / 1e6
	m["emu.step_minsts_per_s"] = float64(insts) / stepT.Seconds() / 1e6
	m["ltb.ns_per_load"] = float64(ltbT) / float64(loads)
	m["prog.build_ms"] = ms(buildT) / float64(len(progs))
	m["regen.allocs_per_op"] = allocs
	m["regen.gc_per_op"] = gcs
	return nil
}

// analyzeLayers measures the build's three steps and staticfac on each
// program under both toolchains.
func analyzeLayers(progs []string, m map[string]float64) error {
	var compileT, asmT, linkT, anT, repT time.Duration
	var allocs, gcs float64
	var sites, classified, n int
	for _, name := range progs {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, tcName := range toolchains {
			tc := toolchain(tcName)
			var text string
			dc, err := fastest(ledgerReps, func() (err error) {
				text, err = minic.Compile(w.Source, tc.Opts)
				return err
			})
			if err != nil {
				return err
			}
			var obj *prog.Object
			da, err := fastest(ledgerReps, func() (err error) {
				obj, err = asm.Assemble(text)
				return err
			})
			if err != nil {
				return err
			}
			// Each link gets a freshly assembled object, assembled off the
			// clock, so no link sees another's output.
			var p *prog.Program
			dl := time.Duration(1<<63 - 1)
			for i := 0; i < ledgerReps; i++ {
				if obj, err = asm.Assemble(text); err != nil {
					return err
				}
				t0 := time.Now()
				if p, err = prog.Link(obj, tc.Link); err != nil {
					return err
				}
				dl = min(dl, time.Since(t0))
			}
			var a *staticfac.Analysis
			dz, _ := fastest(ledgerReps, func() error {
				a = staticfac.Analyze(p, experiments.Geo32)
				return nil
			})
			al, gc, _ := allocsOf(func() error {
				staticfac.Analyze(p, experiments.Geo32)
				return nil
			})
			dr, err := fastest(ledgerReps, func() error {
				r := staticfac.NewReport(a)
				r.Add(name, tcName, a)
				_, err := r.Encode()
				return err
			})
			if err != nil {
				return err
			}
			s := a.Summary()
			sites += s.Sites
			classified += s.Sites - s.ByVerdict[staticfac.VerdictUnknown]
			compileT += dc
			asmT += da
			linkT += dl
			anT += dz
			repT += dr
			allocs += al
			gcs += gc
			n++
		}
	}
	k := float64(n)
	m["minic.compile_ms"] = ms(compileT) / k
	m["asm.assemble_ms"] = ms(asmT) / k
	m["prog.link_ms"] = ms(linkT) / k
	m["staticfac.analyze_ms"] = ms(anT) / k
	m["staticfac.allocs_per_op"] = allocs / k
	m["staticfac.gc_per_op"] = gcs / k
	m["staticfac.report_ms"] = ms(repT) / k
	m["staticfac.classified_ratio"] = float64(classified) / float64(sites)
	return nil
}

// serviceLayers drives a fixed request mix through a fresh service, then
// times the disk cache, key derivation and record encoding directly.
func serviceLayers(dir string, g *goldens, m map[string]float64) error {
	e, err := startService(dir, g)
	if err != nil {
		return err
	}
	defer e.close()
	plan, err := planService(serviceSeed, 0, g, serviceRequests)
	if err != nil {
		return err
	}
	hits := 0
	hitMin := time.Duration(1<<63 - 1)
	for i, op := range plan {
		d, err := e.exec(i, op, nil)
		if err != nil {
			return err
		}
		if op.Hit {
			hits++
			hitMin = min(hitMin, d)
		}
	}
	m["simsvc.hit_ratio"] = float64(hits) / float64(len(plan))
	m["simsvc.evictions"] = float64(e.cache.Stats().Evictions)

	spec := jobSpec(hotSpecs()[0])
	var key string
	dk, err := fastest(microReps, func() (err error) {
		key, err = e.runner.Key(spec)
		return err
	})
	if err != nil {
		return err
	}
	var rec obs.RunRecord
	dg, err := fastest(microReps, func() error {
		var ok bool
		if rec, ok = e.cache.Get(key); !ok {
			return fmt.Errorf("service ledger: hot key %s missing", spec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	dj, err := fastest(microReps, func() error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		var back obs.RunRecord
		return json.Unmarshal(b, &back)
	})
	if err != nil {
		return err
	}
	i := 0
	dp, err := fastest(serviceRequests/10, func() error {
		i++
		h := sha256.Sum256([]byte("ledger-put-" + strconv.Itoa(i)))
		return e.cache.Put(hex.EncodeToString(h[:]), rec)
	})
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	m["simsvc.key_us"] = us(dk)
	m["simsvc.get_us"] = us(dg)
	m["obs.record_json_us"] = us(dj)
	m["simsvc.put_us"] = us(dp)
	m["simsvc.http_self_us"] = us(hitMin - dk - dg - dj)
	return nil
}
