package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// runPass runs a fixed two-run grid through a fresh Suite wired to the
// given cache directory, and returns the counts plus the encoded report.
func runPass(t *testing.T, cacheDir string) (simsvc.RunCounts, []byte, obs.RunRecord) {
	t.Helper()
	c, err := simsvc.OpenDiskCache(cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.SetCache(c)
	w := testWorkload(t, "queens")
	st, err := s.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Timing(w, "fac", MFAC32); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Report("test").Encode()
	if err != nil {
		t.Fatal(err)
	}
	return s.Counts(), rep, st
}

// TestSuiteIncrementalCache: with a persistent cache attached, an
// unchanged re-run of the grid re-simulates nothing — every run is served
// from the cache with the same bytes — while an evicted cache entry is
// honestly re-executed.
func TestSuiteIncrementalCache(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Pass 1: cold — everything simulates.
	c1, rep1, st1 := runPass(t, cacheDir)
	if c1.Simulated != 2 || c1.CacheHits != 0 {
		t.Fatalf("cold pass counts = %+v, want 2 simulated", c1)
	}

	// Pass 2: unchanged inputs — zero simulations, all runs cache hits.
	// This is the acceptance line cmd/experiments -cache prints as
	// "simulated=0 ... cache-hits=N".
	c2, rep2, st2 := runPass(t, cacheDir)
	if c2.Simulated != 0 || c2.CacheHits != 2 {
		t.Fatalf("unchanged re-run counts = %+v, want 0 simulated / 2 cache hits", c2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("cache-served record differs:\n%+v\nvs\n%+v", st1, st2)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("incremental re-run changed report bytes:\n%s\nvs\n%s", rep1, rep2)
	}

	// Pass 3: evict the cache entries. A missing result must re-simulate,
	// not fabricate, and the bytes must not move.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			os.Remove(filepath.Join(cacheDir, e.Name()))
		}
	}
	c3, rep3, _ := runPass(t, cacheDir)
	if c3.Simulated != 2 || c3.CacheHits != 0 {
		t.Fatalf("evicted-cache pass counts = %+v, want 2 re-simulated", c3)
	}
	if !bytes.Equal(rep1, rep3) {
		t.Fatal("re-simulation after eviction changed report bytes")
	}
}

// newDaemon starts an in-process simulation daemon with the given worker
// count and returns its base URL.
func newDaemon(t *testing.T, workers int) string {
	t.Helper()
	runner := &simsvc.Runner{Resolve: func(m string) (pipeline.Config, error) {
		return MachineConfig(Machine(m))
	}}
	srv, err := simsvc.NewServer(simsvc.ServerConfig{Workers: workers}, runner)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestSuiteRemoteTiming: a suite routed at a live daemon produces the
// same stats and report bytes as local simulation, and the accounting
// shows the run was served remotely.
func TestSuiteRemoteTiming(t *testing.T) {
	base := newDaemon(t, 2)
	w := testWorkload(t, "queens")

	local := NewSuite()
	stLocal, err := local.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	repLocal, err := local.Report("test").Encode()
	if err != nil {
		t.Fatal(err)
	}

	rem := NewSuite()
	rem.SetRemote(&simsvc.Client{Base: base})
	stRemote, err := rem.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	repRemote, err := rem.Report("test").Encode()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(stLocal, stRemote) {
		t.Fatalf("remote stats differ:\n%+v\nvs\n%+v", stLocal, stRemote)
	}
	if !bytes.Equal(repLocal, repRemote) {
		t.Fatalf("remote report differs:\n%s\nvs\n%s", repLocal, repRemote)
	}
	if c := rem.Counts(); c.Remote != 1 || c.Simulated != 0 {
		t.Fatalf("remote suite counts = %+v, want 1 remote / 0 simulated", c)
	}
}

// TestSuiteRemoteBusy: a remote grid finishes when the daemon is busy.
// The daemon has one worker, so its tenant may run one synchronous job at
// a time; the grid's two workers send two runs at once, and the daemon
// refuses one with 429. That run waits out the Retry-After and is served.
func TestSuiteRemoteBusy(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	s := NewSuite()
	s.SetRemote(&simsvc.Client{Base: newDaemon(t, 1)})
	if _, err := s.grid(grid{
		workloads: []string{"queens"},
		timing:    []Run{{"base", MBase32}, {"fac", MFAC32}},
	}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c != (simsvc.RunCounts{Remote: 2}) {
		t.Fatalf("counts = %+v, want 2 remote", c)
	}
}

// TestSuiteRemoteWrongRecord: a daemon that answers a run with another
// run's record is an error. The suite neither memoizes the record nor
// stores it in its persistent cache, so it cannot poison a later run.
func TestSuiteRemoteWrongRecord(t *testing.T) {
	w := testWorkload(t, "queens")
	liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var spec simsvc.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		rec := obs.RunRecord{Schema: obs.RunRecordSchema, Benchmark: spec.Workload, Toolchain: spec.Toolchain,
			Machine: string(MFAC32), Cycles: 1, Insts: 1, IPC: 1}
		json.NewEncoder(rw).Encode(map[string]any{"cache_hit": false, "record": rec})
	}))
	defer liar.Close()

	cache, err := simsvc.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.SetCache(cache)
	s.SetRemote(&simsvc.Client{Base: liar.URL})
	if rec, err := s.Timing(w, "base", MBase32); err == nil {
		t.Fatalf("Timing accepted the record of %s for queens|base|base32", rec.Key())
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("the wrong record reached the cache: %+v", st)
	}
	if n := len(s.Report("test").Records); n != 0 {
		t.Fatalf("the report holds %d records, want none", n)
	}
}

// TestSuiteRunnerShareCache: a table regeneration and facd share one
// persistent cache in both directions. A record the suite simulated is a
// cache hit for a daemon's Runner over the same directory, and a record
// the Runner simulated is a cache hit for a later suite.
func TestSuiteRunnerShareCache(t *testing.T) {
	w := testWorkload(t, "queens")
	spec := simsvc.JobSpec{Workload: w.Name, Toolchain: "base", Machine: string(MBase32)}
	open := func(dir string) *simsvc.DiskCache {
		c, err := simsvc.OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	newRunner := func(dir string) *simsvc.Runner {
		return &simsvc.Runner{
			Resolve: func(m string) (pipeline.Config, error) { return MachineConfig(Machine(m)) },
			Cache:   open(dir),
		}
	}
	suiteRun := func(dir string) (obs.RunRecord, simsvc.RunCounts) {
		s := NewSuite()
		s.SetCache(open(dir))
		rec, err := s.Timing(w, spec.Toolchain, MBase32)
		if err != nil {
			t.Fatal(err)
		}
		return rec, s.Counts()
	}

	// Suite first, then the Runner.
	dir := t.TempDir()
	rec1, c1 := suiteRun(dir)
	if c1 != (simsvc.RunCounts{Simulated: 1}) {
		t.Fatalf("suite counts = %+v, want 1 simulated", c1)
	}
	out2, err := newRunner(dir).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := out2.Rec
	if !out2.CacheHit {
		t.Fatal("Runner re-simulated a run the suite had cached")
	}
	if !reflect.DeepEqual(rec1, rec2) {
		t.Fatalf("Runner's cached record differs:\n%+v\nvs\n%+v", rec1, rec2)
	}

	// The Runner first, then the suite.
	dir = t.TempDir()
	out3, err := newRunner(dir).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec3 := out3.Rec
	if out3.CacheHit {
		t.Fatal("Runner hit an empty cache")
	}
	rec4, c4 := suiteRun(dir)
	if c4 != (simsvc.RunCounts{CacheHits: 1}) {
		t.Fatalf("suite counts = %+v, want 1 cache hit and 0 simulated", c4)
	}
	if !reflect.DeepEqual(rec3, rec4) {
		t.Fatalf("suite's cached record differs:\n%+v\nvs\n%+v", rec3, rec4)
	}
}

// TestUnknownToolchain: a toolchain name other than "base" or "fac" is an
// error naming it, for timing and functional runs alike; it is never
// silently built with the base toolchain.
func TestUnknownToolchain(t *testing.T) {
	s := NewSuite()
	w := testWorkload(t, "queens")
	if rec, err := s.Timing(w, "falign", MBase32); err == nil || !strings.Contains(err.Error(), `"falign"`) {
		t.Errorf("Timing(falign) = %d cycles, %v; want an error naming the toolchain", rec.Cycles, err)
	}
	if _, err := s.Functional(w, "FAC"); err == nil || !strings.Contains(err.Error(), `"FAC"`) {
		t.Errorf("Functional(FAC) = %v; want an error naming the toolchain", err)
	}
	if c := s.Counts(); c != (simsvc.RunCounts{}) {
		t.Errorf("counts = %+v after two rejected runs, want none", c)
	}
}
