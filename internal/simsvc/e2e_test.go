package simsvc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// e2eMaxInsts keeps end-to-end simulations fast.
const e2eMaxInsts = 5_000_000

func resolveMachine(m string) (pipeline.Config, error) {
	return experiments.MachineConfig(experiments.Machine(m))
}

func newDaemon(t *testing.T, cache *simsvc.DiskCache, cfg simsvc.ServerConfig) (*simsvc.Server, *simsvc.Runner, string) {
	t.Helper()
	runner := &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts, Cache: cache}
	s, err := simsvc.NewServer(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, runner, hs.URL
}

func submitAndWait(t *testing.T, base string, jobs []simsvc.JobSpec) (batchID string, report []byte) {
	t.Helper()
	c := &simsvc.Client{Base: base}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	batchID, _, err := c.Submit(ctx, jobs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.WaitBatch(ctx, batchID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("batch never finished: %v", err)
	}
	if st.Failed != 0 {
		t.Fatalf("batch finished with %d failed jobs", st.Failed)
	}
	if report, err = c.Report(ctx, batchID); err != nil {
		t.Fatalf("report: %v", err)
	}
	return batchID, report
}

// TestE2EDaemonMatchesInProcess: a daemon-served batch produces a report
// byte-identical to Report.Encode over in-process core.Run of the same
// jobs — the determinism contract of the whole service layer.
func TestE2EDaemonMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	_, _, base := newDaemon(t, nil, simsvc.ServerConfig{Workers: 2})

	jobs := []simsvc.JobSpec{
		{Workload: "queens", Toolchain: "base", Machine: "base32"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac32+rr"},
	}
	_, daemonReport := submitAndWait(t, base, jobs)

	// The same runs, in process, straight through the core facade.
	rep := obs.NewReport("facd", runtime.Version())
	for _, spec := range jobs {
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		tc := workload.BaseToolchain()
		if spec.Toolchain == "fac" {
			tc = workload.FACToolchain()
		}
		p, err := workload.Build(w, tc)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := resolveMachine(spec.Machine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, cfg, e2eMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		rep.Add(res.Stats.Record(w.Name, w.Class.String(), spec.Toolchain, spec.Machine))
	}
	want, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemonReport, want) {
		t.Fatalf("daemon report differs from in-process run:\n--- daemon ---\n%s\n--- in-process ---\n%s",
			daemonReport, want)
	}
}

// TestE2ECacheServesResubmission: with a persistent cache attached,
// re-submitting an identical batch is served entirely from cache — zero
// new simulations — and produces the identical report. A second daemon
// over the same directory (a "restart") also serves from cache.
func TestE2ECacheServesResubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	dir := t.TempDir()
	cache, err := simsvc.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, base := newDaemon(t, cache, simsvc.ServerConfig{Workers: 2})

	jobs := []simsvc.JobSpec{{Workload: "queens", Toolchain: "base", Machine: "base32"}}
	_, first := submitAndWait(t, base, jobs)
	st := cache.Stats()
	if st.Entries != 1 || st.Hits != 0 {
		t.Fatalf("after first batch: %+v", st)
	}

	_, second := submitAndWait(t, base, jobs)
	if !bytes.Equal(first, second) {
		t.Fatalf("cached report differs:\n%s\nvs\n%s", first, second)
	}
	st = cache.Stats()
	if st.Hits != 1 {
		t.Fatalf("resubmission did not hit the cache: %+v", st)
	}

	// The hit is visible in /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Jobs struct {
			CacheHits float64 `json:"cache_hits"`
		} `json:"jobs"`
		CacheHitRate float64 `json:"cache_hit_rate"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Jobs.CacheHits != 1 {
		t.Fatalf("metrics cache_hits = %v, want 1", m.Jobs.CacheHits)
	}
	if m.CacheHitRate <= 0 {
		t.Fatalf("metrics cache_hit_rate = %v, want > 0", m.CacheHitRate)
	}

	// A fresh daemon over the same directory — simulating a restart —
	// serves the same bytes without simulating.
	cache2, err := simsvc.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, base2 := newDaemon(t, cache2, simsvc.ServerConfig{Workers: 2})
	_, third := submitAndWait(t, base2, jobs)
	if !bytes.Equal(first, third) {
		t.Fatal("restarted daemon served different bytes")
	}
	if st2 := cache2.Stats(); st2.Hits != 1 {
		t.Fatalf("restarted daemon missed the persisted entry: %+v", st2)
	}
}

// TestE2EDeadlineStopsPipeline: a deadline far shorter than the
// simulation aborts the pipeline's cycle loop promptly with a
// deadline-exceeded failure.
func TestE2EDeadlineStopsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	runner := &simsvc.Runner{Resolve: resolveMachine, MaxInsts: simsvc.DefaultMaxInsts}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := runner.Run(ctx, simsvc.JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bounded run succeeded unexpectedly")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap DeadlineExceeded", err)
	}
	if elapsed > 15*time.Second {
		t.Fatalf("deadline abort took %v; pipeline loop not stopping promptly", elapsed)
	}
}

// TestRunnerValidate: bad specs are rejected without running.
func TestRunnerValidate(t *testing.T) {
	runner := &simsvc.Runner{Resolve: resolveMachine}
	good := simsvc.JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32"}
	if err := runner.Validate(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []simsvc.JobSpec{
		{Workload: "nope", Toolchain: "base", Machine: "base32"},
		{Workload: "queens", Toolchain: "gcc", Machine: "base32"},
		{Workload: "queens", Toolchain: "base", Machine: "warp9"},
	} {
		if err := runner.Validate(bad); err == nil {
			t.Fatalf("bad spec %v accepted", bad)
		}
	}
}

// TestCacheKeySensitivity: the content-addressed key moves with every
// input that can change a result, and stays put otherwise.
func TestCacheKeySensitivity(t *testing.T) {
	w, err := workload.ByName("queens")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := resolveMachine("base32")
	if err != nil {
		t.Fatal(err)
	}
	base, err := simsvc.CacheKey(w, "base", "base32", cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	same, err := simsvc.CacheKey(w, "base", "base32", cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Fatal("identical inputs produced different keys")
	}

	w2 := w
	w2.Source += "\n// touched"
	cfg2 := cfg
	cfg2.DCache.BlockSize = 16
	variants := []struct {
		name string
		key  func() (string, error)
	}{
		{"source", func() (string, error) { return simsvc.CacheKey(w2, "base", "base32", cfg, 1000) }},
		{"toolchain", func() (string, error) { return simsvc.CacheKey(w, "fac", "base32", cfg, 1000) }},
		{"machine name", func() (string, error) { return simsvc.CacheKey(w, "base", "base16", cfg, 1000) }},
		{"machine config", func() (string, error) { return simsvc.CacheKey(w, "base", "base32", cfg2, 1000) }},
		{"max insts", func() (string, error) { return simsvc.CacheKey(w, "base", "base32", cfg, 2000) }},
	}
	seen := map[string]string{base: "base"}
	for _, v := range variants {
		k, err := v.key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %q collides with %q", v.name, prev)
		}
		seen[k] = v.name
	}
}

// TestE2EConcurrentIdenticalSubmits: many clients submitting the same
// job at once cost one simulation total — concurrent copies join the
// in-flight run (singleflight) and later copies hit the persistent
// cache — and every submitter gets byte-identical report bytes.
func TestE2EConcurrentIdenticalSubmits(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	cache, err := simsvc.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, runner, base := newDaemon(t, cache, simsvc.ServerConfig{Workers: 4, QueueDepth: 32})

	const copies = 6
	jobs := []simsvc.JobSpec{{Workload: "queens", Toolchain: "base", Machine: "base32"}}
	reports := make([][]byte, copies)
	var wg sync.WaitGroup
	for i := 0; i < copies; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, reports[i] = submitAndWait(t, base, jobs)
		}(i)
	}
	wg.Wait()

	for i := 1; i < copies; i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("submitter %d got different report bytes:\n%s\nvs\n%s", i, reports[0], reports[i])
		}
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Fatalf("%d identical jobs created %d cache entries, want 1", copies, st.Entries)
	}
	// Exactly one copy simulated; the rest were deduplicated onto it or
	// served from the cache it filled.
	shared := uint64(runner.Counts().Shared)
	if got := shared + st.Hits; got != copies-1 {
		t.Fatalf("dedup (%d) + cache hits (%d) = %d, want %d short-circuited copies",
			shared, st.Hits, got, copies-1)
	}
}

// executorFunc adapts a function to simsvc.Executor.
type executorFunc func(ctx context.Context, key string, spec simsvc.JobSpec) (simsvc.Served, error)

func (f executorFunc) Exec(ctx context.Context, key string, spec simsvc.JobSpec) (simsvc.Served, error) {
	return f(ctx, key, spec)
}

// TestRunConfigIgnoresRemote: a configuration outside the machine table
// always simulates locally, even on a runner with a Remote, because a
// daemon resolves machine names, not configurations.
func TestRunConfigIgnoresRemote(t *testing.T) {
	runner := &simsvc.Runner{
		Resolve: resolveMachine,
		Remote: executorFunc(func(context.Context, string, simsvc.JobSpec) (simsvc.Served, error) {
			t.Error("RunConfig called the Remote executor")
			return simsvc.Served{}, errors.New("remote called")
		}),
	}
	w, err := workload.ByName("queens")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := resolveMachine("base32")
	if err != nil {
		t.Fatal(err)
	}
	cfg.DCache.Size *= 2
	out, err := runner.RunConfig(context.Background(), w, workload.BaseToolchain(), "adhoc", cfg, e2eMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Rec.Key(); got != "queens|base|adhoc" {
		t.Fatalf("record key = %q", got)
	}
	if c := runner.Counts(); c != (simsvc.RunCounts{Simulated: 1}) {
		t.Fatalf("counts = %+v, want 1 simulated", c)
	}
}
