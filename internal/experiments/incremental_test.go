package experiments

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// runPass runs a fixed two-run grid through a fresh Suite wired to the
// given cache directory, and returns the counts plus the encoded report.
func runPass(t *testing.T, cacheDir string) (RunCounts, []byte, obs.RunRecord) {
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

// TestSuiteRemoteTiming: a suite routed at a live daemon produces the
// same stats and report bytes as local simulation, and the accounting
// shows the run was served remotely.
func TestSuiteRemoteTiming(t *testing.T) {
	runner := &simsvc.Runner{Resolve: func(m string) (pipeline.Config, error) {
		return MachineConfig(Machine(m))
	}}
	srv, err := simsvc.NewServer(simsvc.ServerConfig{Workers: 2}, runner)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

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
	rem.SetRemote(&simsvc.Client{Base: hs.URL})
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
	suiteRun := func(dir string) (obs.RunRecord, RunCounts) {
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
	if c1 != (RunCounts{Simulated: 1}) {
		t.Fatalf("suite counts = %+v, want 1 simulated", c1)
	}
	rec2, hit, err := newRunner(dir).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("Runner re-simulated a run the suite had cached")
	}
	if !reflect.DeepEqual(rec1, rec2) {
		t.Fatalf("Runner's cached record differs:\n%+v\nvs\n%+v", rec1, rec2)
	}

	// The Runner first, then the suite.
	dir = t.TempDir()
	rec3, hit, err := newRunner(dir).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("Runner hit an empty cache")
	}
	rec4, c4 := suiteRun(dir)
	if c4 != (RunCounts{CacheHits: 1}) {
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
	if c := s.Counts(); c != (RunCounts{}) {
		t.Errorf("counts = %+v after two rejected runs, want none", c)
	}
}
