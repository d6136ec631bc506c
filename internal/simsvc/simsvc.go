// Package simsvc turns the timing simulator into infrastructure: a
// simulation-as-a-service layer with a bounded worker pool, a job queue
// with backpressure, per-job deadlines and cancellation plumbed through
// core.RunCtx into the pipeline's cycle loop, singleflight deduplication
// of identical in-flight jobs, and a content-addressed persistent result
// cache holding canonical obs.RunRecord reports. cmd/facd exposes it over
// HTTP/JSON.
//
// The Runner is the one place a run becomes a record: it resolves, keys,
// deduplicates, probes the cache, executes, stores and counts every run.
// Execution is local (build, simulate, validate) or, when the Runner's
// Remote is set, another process's: a daemon's Client for
// cmd/experiments -remote, the fleet Dispatcher for a facd coordinator.
// experiments.Suite holds a Runner of its own, so a table regeneration,
// a daemon and a coordinator write the same cache entries and each is
// served the others' prior runs.
//
// Determinism is the contract throughout: a job's result is the exact
// RunRecord an in-process core.Run of the same (workload, toolchain,
// machine) produces, whether it was computed by a worker, deduplicated
// onto a concurrent identical job, or served from the cache —
// Report.Encode output is byte-identical across all three paths.
package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Version identifies the simulator for cache addressing: it is folded
// into every cache key, so bump it whenever a change alters simulated
// timing (the committed BENCH_pipeline.json moving is the signal) to
// invalidate stale persisted results.
const Version = "facd/1"

// DefaultMaxInsts is the default dynamic instruction bound, shared with
// experiments.Suite so daemon jobs and in-process experiment runs hit the
// same cache entries.
const DefaultMaxInsts = 2_000_000_000

// JobSpec names one simulation: a workload from the benchmark suite, a
// toolchain ("base" or "fac"), and a machine name resolved by the
// service's resolver (the experiments machine table in cmd/facd).
type JobSpec struct {
	Workload  string `json:"workload"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`
	// MaxInsts bounds the dynamic instruction count (0 = service default).
	MaxInsts uint64 `json:"max_insts,omitempty"`
}

func (j JobSpec) String() string {
	return j.Workload + "|" + j.Toolchain + "|" + j.Machine
}

// cacheKeyDoc is the canonical content hashed into a cache key. Every
// input that can change a run's RunRecord is present: the workload's
// source and pinned output, the toolchain, the fully resolved machine
// configuration (not just its name), the instruction bound, and the
// simulator and record-schema versions.
type cacheKeyDoc struct {
	Version   string          `json:"version"`
	Schema    string          `json:"schema"`
	Workload  string          `json:"workload"`
	SourceSHA string          `json:"source_sha256"`
	OutputSHA string          `json:"output_sha256"`
	Toolchain string          `json:"toolchain"`
	Machine   string          `json:"machine"`
	Config    pipeline.Config `json:"config"`
	MaxInsts  uint64          `json:"max_insts"`
}

// CacheKey derives the content-addressed persistent-cache key of one run.
// Identical inputs produce identical keys across processes and restarts;
// any change to the workload source, toolchain, machine configuration,
// instruction bound, or simulator version produces a fresh key.
func CacheKey(w workload.Workload, toolchain, machine string, cfg pipeline.Config, maxInsts uint64) (string, error) {
	shaHex := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	doc := cacheKeyDoc{
		Version:   Version,
		Schema:    obs.RunRecordSchema,
		Workload:  w.Name,
		SourceSHA: shaHex(w.Source),
		OutputSHA: shaHex(w.Expected),
		Toolchain: toolchain,
		Machine:   machine,
		Config:    cfg,
		MaxInsts:  maxInsts,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("simsvc: cache key: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Executor runs a named spec in another process: a facd daemon
// (*Client) or a fleet of them (fleet.Dispatcher). key is the spec's
// cache key, computed with spec.MaxInsts; an executor may route by it.
type Executor interface {
	Exec(ctx context.Context, key string, spec JobSpec) (Served, error)
}

// ErrRunFailed matches the error of a run that failed where it ran: its
// program did not build, its simulation stopped with an error, or its
// output was wrong. Every executor fails such a run the same way, so
// POST /v1/run answers it with 422, and a daemon's 422 matches it too.
var ErrRunFailed = errors.New("simsvc: run failed")

// runFailure marks err as a run failure, keeping its message.
type runFailure struct{ error }

func (f runFailure) Unwrap() error        { return f.error }
func (f runFailure) Is(target error) bool { return target == ErrRunFailed }

// RunCounts is a Runner's execution accounting: where each run's record
// came from. Simulated, Remote and CacheHits count leaders only; Shared
// counts the runs that joined an identical run in flight. An unchanged
// grid re-run over a persistent cache reports Simulated == 0.
type RunCounts struct {
	Simulated, Remote, CacheHits, Shared int
}

// Runner executes jobs: it resolves a spec, then keys, single-flights,
// caches, executes (locally or through Remote) and counts the run.
type Runner struct {
	// Resolve maps a machine name to its simulator configuration; cmd/facd
	// wires experiments.MachineConfig here.
	Resolve func(machine string) (pipeline.Config, error)
	// MaxInsts is the default dynamic-instruction bound for jobs that do
	// not set one (0 = DefaultMaxInsts).
	MaxInsts uint64
	// Cache, when non-nil, persists results across jobs and processes.
	Cache *DiskCache
	// Remote, when non-nil, executes Run's specs elsewhere instead of
	// simulating them here: a Client for cmd/experiments -remote, the
	// fleet Dispatcher for a coordinator. RunConfig never uses it.
	Remote Executor

	flight flight
	// What the leaders' runs came from; flight counts the followers.
	simulated, remote, cacheHits atomic.Int64
}

// resolved is a spec with its names looked up: the inputs of RunConfig.
type resolved struct {
	w        workload.Workload
	tc       workload.Toolchain
	cfg      pipeline.Config
	maxInsts uint64
}

// resolve looks up a spec's workload, toolchain and machine, and applies
// the default instruction bound. Validate, Key and Run all start here, so
// a spec that validates is the spec that runs.
func (r *Runner) resolve(spec JobSpec) (resolved, error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return resolved{}, err
	}
	tc, err := workload.ToolchainByName(spec.Toolchain)
	if err != nil {
		return resolved{}, err
	}
	if r.Resolve == nil {
		return resolved{}, errors.New("simsvc: runner has no machine resolver")
	}
	cfg, err := r.Resolve(spec.Machine)
	if err != nil {
		return resolved{}, err
	}
	maxInsts := spec.MaxInsts
	if maxInsts == 0 {
		maxInsts = r.MaxInsts
	}
	if maxInsts == 0 {
		maxInsts = DefaultMaxInsts
	}
	return resolved{w: w, tc: tc, cfg: cfg, maxInsts: maxInsts}, nil
}

// Validate checks that a spec names a known workload, toolchain, and
// machine without running anything, so the service can reject a bad
// batch at submission time.
func (r *Runner) Validate(spec JobSpec) error {
	_, err := r.resolve(spec)
	return err
}

// Counts snapshots the runner's execution accounting.
func (r *Runner) Counts() RunCounts {
	return RunCounts{Simulated: int(r.simulated.Load()), Remote: int(r.remote.Load()),
		CacheHits: int(r.cacheHits.Load()), Shared: r.flight.joined()}
}

// CacheStats snapshots the persistent cache (ok=false when none is
// attached).
func (r *Runner) CacheStats() (DiskCacheStats, bool) {
	if r.Cache == nil {
		return DiskCacheStats{}, false
	}
	return r.Cache.Stats(), true
}

// Key derives the content-addressed cache key of a spec by resolving it
// the same way Run does. It is the fleet's shard key and the persistent
// cache's address, so sharding, dedup and caching all agree on what
// "the same run" means.
func (r *Runner) Key(spec JobSpec) (string, error) {
	rs, err := r.resolve(spec)
	if err != nil {
		return "", err
	}
	return CacheKey(rs.w, rs.tc.Name, spec.Machine, rs.cfg, rs.maxInsts)
}

// Warm pre-populates and pins the given specs in the persistent cache:
// each spec is simulated (or served from cache) via the normal Run path,
// then its key is pinned so LRU eviction under later cache pressure can
// never churn out the entries every rerun depends on. It returns how
// many runs were freshly simulated versus already cached.
func (r *Runner) Warm(ctx context.Context, specs []JobSpec) (simulated, hits int, err error) {
	if r.Cache == nil {
		return 0, 0, errors.New("simsvc: warm requires a persistent cache")
	}
	for _, spec := range specs {
		key, err := r.Key(spec)
		if err != nil {
			return simulated, hits, err
		}
		out, err := r.Run(ctx, spec)
		if err != nil {
			return simulated, hits, fmt.Errorf("simsvc: warm %s: %w", spec, err)
		}
		if out.CacheHit {
			hits++
		} else {
			simulated++
		}
		if err := r.Cache.Pin(key); err != nil {
			return simulated, hits, err
		}
	}
	return simulated, hits, nil
}

// Run executes one named job: it resolves the spec's names and runs it
// through Remote when one is set, else locally. The remote receives the
// spec with MaxInsts set to the bound its key was computed with.
func (r *Runner) Run(ctx context.Context, spec JobSpec) (Served, error) {
	rs, err := r.resolve(spec)
	if err != nil {
		return Served{}, err
	}
	return r.run(ctx, rs, spec.Machine, r.Remote != nil)
}

// RunConfig executes one run of workload w, built with toolchain tc, on
// the machine configuration cfg recorded under the name machine, bounded
// at maxInsts dynamic instructions. Only configurations outside the named
// machine table (the cache sweep) need it. It always simulates locally,
// even when Remote is set, because a daemon resolves machine names, not
// configurations.
func (r *Runner) RunConfig(ctx context.Context, w workload.Workload, tc workload.Toolchain, machine string, cfg pipeline.Config, maxInsts uint64) (Served, error) {
	return r.run(ctx, resolved{w: w, tc: tc, cfg: cfg, maxInsts: maxInsts}, machine, false)
}

// run is the one place a run becomes a validated RunRecord: it keys the
// run, joins an identical in-flight run, probes the persistent cache, and
// on a miss executes the run — through Remote, or by building, simulating
// and checking the output — then stores and counts the record. A cached
// record is served only under the spec's own benchmark|toolchain|machine
// key; an entry holding another run's record is deleted as corrupt.
// Served.CacheHit reports that a persistent cache served the record, this
// runner's or the remote's. ctx cancellation or deadline aborts the
// execution promptly; the error then wraps ctx.Err().
func (r *Runner) run(ctx context.Context, rs resolved, machine string, remote bool) (Served, error) {
	key, err := CacheKey(rs.w, rs.tc.Name, machine, rs.cfg, rs.maxInsts)
	if err != nil {
		return Served{}, err
	}
	spec := JobSpec{Workload: rs.w.Name, Toolchain: rs.tc.Name, Machine: machine, MaxInsts: rs.maxInsts}
	v, shared, err := r.flight.Do(key, func() (any, error) {
		if r.Cache != nil {
			if rec, e, ok := r.Cache.get(key, spec.String()); ok {
				r.cacheHits.Add(1)
				return Served{Rec: rec, CacheHit: true, hit: e}, nil
			}
		}
		var out Served
		if remote {
			var err error
			if out, err = r.Remote.Exec(ctx, key, spec); err != nil {
				return nil, fmt.Errorf("%s: remote: %w", spec, err)
			}
			r.remote.Add(1)
		} else {
			p, err := workload.Build(rs.w, rs.tc)
			if err != nil {
				return nil, runFailure{err}
			}
			res, err := core.RunCtx(ctx, p, rs.cfg, rs.maxInsts, nil)
			switch {
			case err != nil && ctx.Err() != nil: // cut short, not failed
				return nil, fmt.Errorf("%s: %w", spec, err)
			case err != nil:
				return nil, runFailure{fmt.Errorf("%s: %w", spec, err)}
			case res.Output != rs.w.Expected:
				return nil, runFailure{fmt.Errorf("%s: output %q != expected %q", spec, res.Output, rs.w.Expected)}
			}
			out.Rec = res.Stats.Record(rs.w.Name, rs.w.Class.String(), rs.tc.Name, machine)
			r.simulated.Add(1)
		}
		if r.Cache != nil {
			// A failed write only costs future hits; the run itself is good.
			_ = r.Cache.Put(key, out.Rec)
		}
		return out, nil
	})
	if err != nil {
		// A follower can inherit the leader's cancellation even though its
		// own context is fine; label that so callers know a retry would
		// run rather than fail again.
		if shared && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return Served{}, fmt.Errorf("simsvc: deduplicated onto a canceled identical job, retry: %w", err)
		}
		return Served{}, err
	}
	return v.(Served), nil
}
