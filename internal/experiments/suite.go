// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the substitute benchmark suite: Figure 2 (load
// latency potential), Table 1 (reference behaviour), Figure 3 (offset
// distributions), Table 3 (baseline statistics and prediction failure
// rates), Table 4 (software support), Figure 6 (speedups), Table 6 (cache
// bandwidth overhead), plus the ablations DESIGN.md calls out (tag adder,
// store-buffer depth, MSHR count, block size).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/ltb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// Geometries used throughout: the paper's 16KB direct-mapped cache with 16-
// and 32-byte blocks.
var (
	Geo16 = fac.Config{BlockBits: 4, SetBits: 14}
	Geo32 = fac.Config{BlockBits: 5, SetBits: 14}

	// The ablations' geometries: Geo32 with the optional tag adder (paper
	// Section 3.1), and 64-byte blocks.
	geoTag = fac.Config{BlockBits: 5, SetBits: 14, TagAdder: true}
	geo64  = fac.Config{BlockBits: 6, SetBits: 14}
)

// Machine names every simulator configuration used by the experiments.
type Machine string

const (
	MBase32     Machine = "base32"      // Table 5 baseline, 32B blocks
	MBase16     Machine = "base16"      // baseline with 16B data blocks
	MOneCycle   Machine = "1cyc"        // 1-cycle loads (Figure 2)
	MPerfect    Machine = "perfect"     // perfect data cache (Figure 2)
	MOnePerfect Machine = "1cyc+perf"   // both (Figure 2)
	MFAC16      Machine = "fac16"       // FAC, 16B blocks, no R+R speculation
	MFAC32      Machine = "fac32"       // FAC, 32B blocks, no R+R speculation
	MFAC16RR    Machine = "fac16+rr"    // FAC, 16B blocks, R+R speculation
	MFAC32RR    Machine = "fac32+rr"    // FAC, 32B blocks, R+R speculation
	MFAC32Tag   Machine = "fac32+tag"   // ablation: tag adder
	MFAC32SB4   Machine = "fac32+sb4"   // ablation: 4-entry store buffer
	MFAC32SB64  Machine = "fac32+sb64"  // ablation: 64-entry store buffer
	MFAC32MSHR1 Machine = "fac32+mshr1" // ablation: single outstanding miss
	MAGI        Machine = "agi"         // related work: AGI pipeline organization

	// Predictor-zoo machines (internal/predict), all at 32-byte blocks.
	MPCAX      Machine = "pcax"      // PC-indexed last-address table
	MStride    Machine = "stride"    // PC-indexed two-delta stride table
	MSelective Machine = "selective" // FAC gated by static proven-failing verdicts
)

// MachineConfig resolves a machine name to its simulator configuration.
func MachineConfig(m Machine) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	switch m {
	case MBase32:
	case MBase16:
		cfg.DCache.BlockSize = 16
	case MOneCycle:
		cfg.LoadLatency = 1
	case MPerfect:
		cfg.PerfectDCache = true
	case MOnePerfect:
		cfg.LoadLatency = 1
		cfg.PerfectDCache = true
	case MFAC16:
		cfg.Predictor = "fac"
		cfg.DCache.BlockSize = 16
	case MFAC32:
		cfg.Predictor = "fac"
	case MFAC16RR:
		cfg.Predictor = "fac"
		cfg.DCache.BlockSize = 16
		cfg.SpeculateRegReg = true
	case MFAC32RR:
		cfg.Predictor = "fac"
		cfg.SpeculateRegReg = true
	case MFAC32Tag:
		cfg.Predictor = "fac"
		cfg.FACGeom = geoTag
	case MFAC32SB4:
		cfg.Predictor = "fac"
		cfg.StoreBufferEntries = 4
	case MFAC32SB64:
		cfg.Predictor = "fac"
		cfg.StoreBufferEntries = 64
	case MFAC32MSHR1:
		cfg.Predictor = "fac"
		cfg.DCache.MSHRs = 1
	case MAGI:
		cfg.AGI = true
		cfg.MispredictPenalty++ // branches resolve one stage later
	case MPCAX:
		cfg.Predictor = "pcax"
	case MStride:
		cfg.Predictor = "stride"
	case MSelective:
		cfg.Predictor = "selective"
	default:
		return cfg, fmt.Errorf("experiments: unknown machine %q", m)
	}
	return cfg, nil
}

// FuncResult caches one functional (profiling) run.
type FuncResult struct {
	// Profile measures the geometries Geo16, Geo32, geoTag and geo64, at
	// indices 0 to 3.
	Profile *profile.Profile
	Insts   uint64
	MemUse  uint64
	Output  string
	// LTBLast and LTBStride are the load-address prediction accuracies of
	// the 1K-entry load target buffer (Golden & Mudge) with the
	// last-address and stride policies, over the same stream.
	LTBLast   float64
	LTBStride float64
}

// Suite memoizes functional profiles and timing runs across experiments.
// Every timing run also yields a canonical obs.RunRecord, so any sequence
// of experiments can be exported as one machine-readable report
// (cmd/experiments -json).
type Suite struct {
	MaxInsts uint64

	// flight collapses concurrent identical work (profiles, timing runs)
	// onto one leader, so each is computed, memoized and counted once. The
	// memo maps alone cannot do this: they are consulted under mu but
	// filled only after the work completes, so two workers racing on the
	// same key both used to run it.
	flight simsvc.Flight

	// runner turns each local timing run into a validated record through
	// the persistent cache, the same path facd's jobs take.
	runner simsvc.Runner

	mu     sync.Mutex
	funcs  map[string]*FuncResult
	runs   map[string]timingRun
	remote *simsvc.Client
	counts RunCounts
}

// timingRun is one memoized timing result. exported reports whether it
// joins the suite's Report: named machines do, ad-hoc sweep
// configurations do not.
type timingRun struct {
	rec      obs.RunRecord
	exported bool
}

// RunCounts is the suite's execution accounting for one process: where
// each timing run's result actually came from. An unchanged grid re-run
// over a persistent cache reports Simulated == 0 with every run a cache
// hit.
type RunCounts struct {
	// Simulated counts fresh local simulations.
	Simulated int `json:"simulated"`
	// Remote counts runs served by a remote daemon or fleet coordinator.
	Remote int `json:"remote"`
	// CacheHits counts runs served by the persistent disk cache.
	CacheHits int `json:"cache_hits"`
}

// NewSuite creates an experiment suite.
func NewSuite() *Suite {
	return &Suite{
		MaxInsts: simsvc.DefaultMaxInsts,
		funcs:    make(map[string]*FuncResult),
		runs:     make(map[string]timingRun),
	}
}

// SetCache attaches a persistent result cache to the suite's runner:
// timing runs whose content-addressed key (workload, toolchain, machine
// config, simulator version) is present are served from disk instead of
// simulated, and fresh runs are written back. The same directory format
// is shared with the facd daemon. Call it before the suite runs anything.
func (s *Suite) SetCache(c *simsvc.DiskCache) {
	s.runner.Cache = c
}

// SetRemote routes named-machine timing runs to a simulation daemon (or
// fleet coordinator) instead of simulating locally. Determinism makes
// the substitution invisible: the daemon returns the exact RunRecord a
// local run would produce, so reports are byte-identical either way.
// Ad-hoc sweep configurations outside the named machine table still run
// locally — a remote daemon only resolves machine names.
func (s *Suite) SetRemote(c *simsvc.Client) {
	s.mu.Lock()
	s.remote = c
	s.mu.Unlock()
}

// Counts snapshots the suite's execution accounting.
func (s *Suite) Counts() RunCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// CacheStats reports the attached persistent cache's statistics, if any.
func (s *Suite) CacheStats() (simsvc.DiskCacheStats, bool) {
	return s.runner.CacheStats()
}

// Functional runs a workload once on the emulator and validates its
// output. The one trace stream feeds every functional measurement: the
// reference profile over the FuncResult geometries and both load target
// buffers. Concurrent callers for the same key share one build and run.
func (s *Suite) Functional(w workload.Workload, tc string) (*FuncResult, error) {
	key := w.Name + "|" + tc
	s.mu.Lock()
	if r, ok := s.funcs[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	v, _, err := s.flight.Do("func|"+key, func() (any, error) {
		s.mu.Lock()
		if r, ok := s.funcs[key]; ok {
			s.mu.Unlock()
			return r, nil
		}
		s.mu.Unlock()
		toolchain, err := workload.ToolchainByName(tc)
		if err != nil {
			return nil, err
		}
		p, err := workload.Build(w, toolchain)
		if err != nil {
			return nil, err
		}
		e := emu.New(p)
		e.MaxInsts = s.MaxInsts
		prof := profile.New(Geo16, Geo32, geoTag, geo64)
		last := ltb.New(ltb.Config{Entries: 1024})
		stride := ltb.New(ltb.Config{Entries: 1024, Stride: true})
		var tr emu.Trace
		for !e.Halted {
			if err := e.StepInto(&tr); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, tc, err)
			}
			prof.Note(tr)
			if tr.Inst.Op.IsLoad() {
				last.Access(tr.PC, tr.EffAddr)
				stride.Access(tr.PC, tr.EffAddr)
			}
		}
		if e.Out.String() != w.Expected {
			return nil, fmt.Errorf("%s/%s: output %q != expected %q", w.Name, tc, e.Out.String(), w.Expected)
		}
		r := &FuncResult{
			Profile: &prof.P, Insts: e.InstCount, MemUse: e.Mem.Footprint(), Output: e.Out.String(),
			LTBLast: last.Accuracy(), LTBStride: stride.Accuracy(),
		}
		s.mu.Lock()
		s.funcs[key] = r
		s.mu.Unlock()
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*FuncResult), nil
}

// Timing runs a workload on a machine (with caching and output validation)
// and returns the run's canonical record.
func (s *Suite) Timing(w workload.Workload, tc string, m Machine) (obs.RunRecord, error) {
	cfg, err := MachineConfig(m)
	if err != nil {
		return obs.RunRecord{}, err
	}
	return s.timing(nil, w, tc, m, cfg, true)
}

// timing is the single path behind Timing and timingWithConfig. The
// suite memoizes each record and counts where it came from; concurrent
// identical calls share one leader, so a run is counted once. Local runs
// go through the runner (simsvc.Runner.RunConfig); named machines go to
// the remote daemon when one is set. ctx reaches the pipeline's cycle
// loop (nil disables the checks). record controls whether the run joins
// the suite's exportable report — named machines do, ad-hoc sweep
// configurations do not.
func (s *Suite) timing(ctx context.Context, w workload.Workload, tc string, m Machine, cfg pipeline.Config, record bool) (obs.RunRecord, error) {
	key := w.Name + "|" + tc + "|" + string(m)
	s.mu.Lock()
	if r, ok := s.runs[key]; ok {
		s.mu.Unlock()
		return r.rec, nil
	}
	remote := s.remote
	s.mu.Unlock()

	v, _, err := s.flight.Do("timing|"+key, func() (any, error) {
		s.mu.Lock()
		if r, ok := s.runs[key]; ok {
			s.mu.Unlock()
			return r.rec, nil
		}
		s.mu.Unlock()
		toolchain, err := workload.ToolchainByName(tc)
		if err != nil {
			return nil, err
		}
		// finish memoizes a finished run. Disk and remote records are
		// stored verbatim, so a cache hit and a fresh simulation export
		// the same bytes.
		finish := func(rec obs.RunRecord, bump func(*RunCounts)) (any, error) {
			s.mu.Lock()
			s.runs[key] = timingRun{rec: rec, exported: record}
			bump(&s.counts)
			s.mu.Unlock()
			return rec, nil
		}
		cacheHit := func(c *RunCounts) { c.CacheHits++ }

		// Remote execution: named machines resolve on the daemon; ad-hoc
		// sweep configurations (record=false) only exist locally. The
		// local cache is probed first and keeps what the daemon returns.
		if remote != nil && record {
			disk := s.runner.Cache
			var diskKey string
			if disk != nil {
				if diskKey, err = simsvc.CacheKey(w, tc, string(m), cfg, s.MaxInsts); err != nil {
					return nil, err
				}
				if rec, ok := disk.Get(diskKey); ok {
					return finish(rec, cacheHit)
				}
			}
			rctx := ctx
			if rctx == nil {
				rctx = context.Background()
			}
			rec, _, err := remote.RunSync(rctx, simsvc.JobSpec{
				Workload: w.Name, Toolchain: tc, Machine: string(m), MaxInsts: s.MaxInsts,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: remote: %w", w.Name, tc, m, err)
			}
			if disk != nil {
				disk.Put(diskKey, rec) // share the fetch with future local passes
			}
			return finish(rec, func(c *RunCounts) { c.Remote++ })
		}

		rec, hit, err := s.runner.RunConfig(ctx, w, toolchain, string(m), cfg, s.MaxInsts)
		if err != nil {
			return nil, err
		}
		if hit {
			return finish(rec, cacheHit)
		}
		return finish(rec, func(c *RunCounts) { c.Simulated++ })
	})
	if err != nil {
		return obs.RunRecord{}, err
	}
	return v.(obs.RunRecord), nil
}

// Report collects every timing run performed so far into a sorted,
// deterministically encodable report. Identical experiment sequences
// produce byte-identical Report.Encode output regardless of worker
// count or execution order.
func (s *Suite) Report(tool string) *obs.Report {
	rep := obs.NewReport(tool, runtime.Version())
	s.mu.Lock()
	for _, r := range s.runs {
		if r.exported {
			rep.Add(r.rec)
		}
	}
	s.mu.Unlock()
	rep.Sort()
	return rep
}

// job is one unit of parallel work. The pool's context is canceled when
// any job fails; jobs that can stop early (timing runs) thread it into
// the simulator's cycle loop.
type job func(ctx context.Context) error

// runParallel executes jobs with a bounded worker pool. On the first
// failure it cancels the pool context — in-flight simulations abort at
// the next cycle-loop check and queued jobs are skipped — and returns
// the error of the earliest-submitted genuinely failed job, so the
// reported error does not depend on worker count or scheduling.
func runParallel(jobs []job) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	type task struct {
		idx int
		fn  job
	}
	ch := make(chan task)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if ctx.Err() != nil {
					errs[t.idx] = ctx.Err() // skipped: pool already canceled
					continue
				}
				if err := t.fn(ctx); err != nil {
					errs[t.idx] = err
					cancel()
				}
			}
		}()
	}
	for i, j := range jobs {
		ch <- task{i, j}
	}
	close(ch)
	wg.Wait()

	// Deterministic selection: the earliest submitted error that is not
	// collateral damage of the pool's own cancellation. cancel() is only
	// called on a genuine failure, so at least one such error exists
	// whenever any error does.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err // fallback, in case every error is cancellation
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// Prefetch warms the timing cache for a set of (toolchain, machine) pairs
// across all workloads, in parallel.
func (s *Suite) Prefetch(pairs [][2]string) error {
	var jobs []job
	for _, w := range workload.All() {
		for _, pr := range pairs {
			w, tc, m := w, pr[0], Machine(pr[1])
			jobs = append(jobs, func(ctx context.Context) error {
				cfg, err := MachineConfig(m)
				if err != nil {
					return err
				}
				_, err = s.timing(ctx, w, tc, m, cfg, true)
				return err
			})
		}
	}
	return runParallel(jobs)
}

// PrefetchFunctional warms the profile cache for both toolchains.
func (s *Suite) PrefetchFunctional() error {
	var jobs []job
	for _, w := range workload.All() {
		for _, tc := range []string{"base", "fac"} {
			w, tc := w, tc
			jobs = append(jobs, func(context.Context) error {
				_, err := s.Functional(w, tc)
				return err
			})
		}
	}
	return runParallel(jobs)
}
