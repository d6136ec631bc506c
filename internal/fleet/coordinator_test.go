package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// newTestCoordinator serves a coordinator — a simsvc.Server over a
// Runner whose Remote is a Dispatcher — over the given workers, with an
// optional persistent cache. The resolver is a stub: a coordinator keys
// runs but never simulates them.
func newTestCoordinator(t *testing.T, workers []string, cache *simsvc.DiskCache) (*simsvc.Runner, string) {
	t.Helper()
	d, err := New(Config{Workers: workers, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	runner := &simsvc.Runner{
		Resolve: func(string) (pipeline.Config, error) { return pipeline.Config{}, nil },
		Cache:   cache,
		Remote:  d,
	}
	s, err := simsvc.NewServer(simsvc.ServerConfig{Workers: 2}, runner)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return runner, hs.URL
}

// getJSON decodes one GET response from the coordinator.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorSharesIdenticalRuns: two identical runs in flight at
// once through a coordinator reach the worker once; the second joins the
// first, and /metrics counts it as dedup_shared.
func TestCoordinatorSharesIdenticalRuns(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-release
		serveRecord(w, r, 5)
	}))
	defer worker.Close()
	runner, coord := newTestCoordinator(t, []string{worker.URL}, nil)

	c := &simsvc.Client{Base: coord}
	spec := testSpec(0)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = c.RunSync(context.Background(), spec)
		}()
	}
	// Answer the worker's request once the second run has joined the first.
	deadline := time.Now().Add(10 * time.Second)
	for runner.Counts().Shared == 0 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("the second run never joined the first; the worker was reached %d times", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the worker was reached %d times, want once", n)
	}
	if c := runner.Counts(); c != (simsvc.RunCounts{Remote: 1, Shared: 1}) {
		t.Fatalf("counts = %+v, want 1 remote and 1 shared", c)
	}
	var m struct {
		DedupShared int                   `json:"dedup_shared"`
		Fleet       []simsvc.WorkerStatus `json:"fleet"`
	}
	getJSON(t, coord+"/metrics", &m)
	if m.DedupShared != 1 || len(m.Fleet) != 1 || m.Fleet[0].Completed != 1 {
		t.Fatalf("metrics dedup_shared=%d fleet=%+v, want 1 shared and one completed dispatch", m.DedupShared, m.Fleet)
	}
}

// TestCoordinatorServesFromCache: a coordinator with a persistent cache
// serves a repeated spec from it without dispatching, and the job it
// serves that way names no worker.
func TestCoordinatorServesFromCache(t *testing.T) {
	var calls atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		serveRecord(w, r, 7)
	}))
	defer worker.Close()
	cache, err := simsvc.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, coord := newTestCoordinator(t, []string{worker.URL}, cache)

	c := &simsvc.Client{Base: coord}
	spec := testSpec(0)
	run := func() (worker string, cacheHit bool) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		batch, ids, err := c.Submit(ctx, []simsvc.JobSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.WaitBatch(ctx, batch, 5*time.Millisecond); err != nil || st.Done != 1 {
			t.Fatalf("batch %s = %+v, %v; want its job done", batch, st, err)
		}
		var jv struct {
			Worker   string `json:"worker"`
			CacheHit bool   `json:"cache_hit"`
		}
		getJSON(t, coord+"/v1/jobs/"+ids[0], &jv)
		return jv.Worker, jv.CacheHit
	}

	if w, hit := run(); w != worker.URL || hit {
		t.Fatalf("first run: worker %q cache_hit %v, want %q and a miss", w, hit, worker.URL)
	}
	if w, hit := run(); w != "" || !hit {
		t.Fatalf("repeated run: worker %q cache_hit %v, want no worker and a cache hit", w, hit)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the worker was reached %d times, want once", n)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("coordinator cache = %+v, want 1 entry and 1 hit", st)
	}
}
