package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// testKey derives a spec's shard key as a coordinator's Runner does,
// through a resolver-only runner.
func testKey(t *testing.T, spec simsvc.JobSpec) string {
	t.Helper()
	r := &simsvc.Runner{
		Resolve: func(machine string) (pipeline.Config, error) { return pipeline.Config{}, nil },
	}
	key, err := r.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// exec dispatches spec under its shard key.
func exec(t *testing.T, d *Dispatcher, spec simsvc.JobSpec) (simsvc.Served, error) {
	t.Helper()
	return d.Exec(context.Background(), testKey(t, spec), spec)
}

func testSpec(maxInsts uint64) simsvc.JobSpec {
	return simsvc.JobSpec{
		Workload:  workload.All()[0].Name,
		Toolchain: "base",
		Machine:   "base32",
		MaxInsts:  maxInsts,
	}
}

// serveRecord writes a well-formed synchronous-run response: a record of
// the requested spec.
func serveRecord(w http.ResponseWriter, r *http.Request, cycles uint64) {
	var spec simsvc.JobSpec
	json.NewDecoder(r.Body).Decode(&spec)
	rec := obs.RunRecord{
		Schema:    obs.RunRecordSchema,
		Benchmark: spec.Workload,
		Toolchain: spec.Toolchain,
		Machine:   spec.Machine,
		Cycles:    cycles,
	}
	json.NewEncoder(w).Encode(map[string]any{"cache_hit": false, "record": rec})
}

// specOwnedBy searches MaxInsts values until the spec's shard key lands
// on the wanted worker, so tests can steer jobs at a particular primary.
func specOwnedBy(t *testing.T, d *Dispatcher, worker string) simsvc.JobSpec {
	t.Helper()
	for i := uint64(1); i < 10_000; i++ {
		spec := testSpec(i)
		if d.ring.Owner(testKey(t, spec)) == worker {
			return spec
		}
	}
	t.Fatalf("no spec found with primary %s", worker)
	return simsvc.JobSpec{}
}

// TestDispatcherShardAffinity: the same spec always lands on the same
// worker (its cache stays warm), and distinct specs spread across the
// fleet.
func TestDispatcherShardAffinity(t *testing.T) {
	var counts [3]atomic.Int64
	var urls []string
	for i := 0; i < 3; i++ {
		i := i
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counts[i].Add(1)
			serveRecord(w, r, 1)
		}))
		defer s.Close()
		urls = append(urls, s.URL)
	}
	d, err := New(Config{Workers: urls, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(7)
	for i := 0; i < 5; i++ {
		if _, err := exec(t, d, spec); err != nil {
			t.Fatal(err)
		}
	}
	hot := 0
	for i := range counts {
		if n := counts[i].Load(); n > 0 {
			hot++
			if n != 5 {
				t.Fatalf("worker %d served %d of 5 identical runs", i, n)
			}
		}
	}
	if hot != 1 {
		t.Fatalf("identical runs spread over %d workers, want 1", hot)
	}

	for i := uint64(1); i <= 30; i++ {
		if _, err := exec(t, d, testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	spread := 0
	for i := range counts {
		if counts[i].Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("30 distinct specs all landed on one worker")
	}
}

// TestDispatcherFailover: a worker failing at the transport/5xx level is
// routed around — the next ring owner serves the job, the failure is
// counted, and the steal is attributed to the dead primary.
func TestDispatcherFailover(t *testing.T) {
	var badCalls, goodCalls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		goodCalls.Add(1)
		serveRecord(w, r, 42)
	}))
	defer good.Close()

	d, err := New(Config{Workers: []string{bad.URL, good.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, d, bad.URL)

	out, err := exec(t, d, spec)
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if out.Rec.Cycles != 42 {
		t.Fatalf("record came from the wrong worker: %+v", out.Rec)
	}
	if out.Worker != good.URL {
		t.Fatalf("worker attribution = %q, want %q", out.Worker, good.URL)
	}
	if badCalls.Load() != 1 || goodCalls.Load() != 1 {
		t.Fatalf("calls = bad:%d good:%d, want 1:1", badCalls.Load(), goodCalls.Load())
	}
	var badSt, goodSt simsvc.WorkerStatus
	for _, st := range d.FleetStats() {
		switch st.URL {
		case bad.URL:
			badSt = st
		case good.URL:
			goodSt = st
		}
	}
	if badSt.Failed != 1 || badSt.Stolen != 1 || badSt.Healthy {
		t.Fatalf("dead primary stats = %+v", badSt)
	}
	if goodSt.Completed != 1 {
		t.Fatalf("serving worker stats = %+v", goodSt)
	}

	// The dead worker is now in cool-off: a second run of the same spec
	// must go straight to the healthy worker without retrying it.
	if _, err := exec(t, d, spec); err != nil {
		t.Fatal(err)
	}
	if badCalls.Load() != 1 {
		t.Fatalf("cool-off ignored: dead worker called %d times", badCalls.Load())
	}
}

// TestDispatcherSemanticErrorNoFailover: a deterministic 4xx refusal
// returns immediately — every worker would reject the same way, so
// re-dispatching would only duplicate the failure.
func TestDispatcherSemanticErrorNoFailover(t *testing.T) {
	var calls [2]atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		i := i
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls[i].Add(1)
			http.Error(w, `{"error":"no such machine"}`, http.StatusBadRequest)
		}))
		defer s.Close()
		urls = append(urls, s.URL)
	}
	d, err := New(Config{Workers: urls, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec(t, d, testSpec(3))
	if err == nil || !strings.Contains(err.Error(), "no such machine") {
		t.Fatalf("err = %v, want the worker's 400", err)
	}
	if total := calls[0].Load() + calls[1].Load(); total != 1 {
		t.Fatalf("semantic failure dispatched %d times, want 1", total)
	}
}

// TestDispatcherHedging: when the primary straggles past HedgeAfter, a
// backup dispatch on the next owner wins; the straggler's attempt is
// cancelled and the steal is recorded.
func TestDispatcherHedging(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Second):
			serveRecord(w, r, 1)
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveRecord(w, r, 2)
	}))
	defer fast.Close()

	d, err := New(Config{
		Workers:    []string{slow.URL, fast.URL},
		HedgeAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, d, slow.URL)

	start := time.Now()
	out, err := exec(t, d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rec.Cycles != 2 || out.Worker != fast.URL {
		t.Fatalf("hedge did not win: cycles=%d worker=%q", out.Rec.Cycles, out.Worker)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("run waited for the straggler")
	}
	var fastSt, slowSt simsvc.WorkerStatus
	for _, st := range d.FleetStats() {
		switch st.URL {
		case fast.URL:
			fastSt = st
		case slow.URL:
			slowSt = st
		}
	}
	if fastSt.Hedges != 1 || fastSt.Completed != 1 {
		t.Fatalf("hedged worker stats = %+v", fastSt)
	}
	if slowSt.Stolen != 1 {
		t.Fatalf("straggler stats = %+v", slowSt)
	}
}

// TestDispatcherAbsorbsBackpressure: a 429 with Retry-After is not a
// failure — the dispatch waits and retries the same worker, preserving
// shard affinity under quota pressure.
func TestDispatcherAbsorbsBackpressure(t *testing.T) {
	var calls atomic.Int64
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"over quota"}`, http.StatusTooManyRequests)
			return
		}
		serveRecord(w, r, 9)
	}))
	defer s.Close()
	d, err := New(Config{Workers: []string{s.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec(t, d, testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rec.Cycles != 9 || calls.Load() != 2 {
		t.Fatalf("cycles=%d calls=%d, want 9 after 2 calls", out.Rec.Cycles, calls.Load())
	}
}

// TestDispatcherAllWorkersFailed: when every owner fails at the
// transport level the error says so and wraps the last cause.
func TestDispatcherAllWorkersFailed(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"disk on fire"}`, http.StatusServiceUnavailable)
	}))
	defer s.Close()
	d, err := New(Config{Workers: []string{s.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec(t, d, testSpec(1))
	if err == nil || !strings.Contains(err.Error(), "all 1 workers failed") {
		t.Fatalf("err = %v, want all-workers-failed", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the underlying cause preserved", err)
	}
}
