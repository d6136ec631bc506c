package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/simsvc"
)

// TestRunParallelDeterministicError: when several jobs fail, runParallel
// reports the earliest-submitted genuine failure, not whichever worker
// lost the race. Job 0 fails only after job 1 already has — a temporal
// "first error" policy would return job 1's.
func TestRunParallelDeterministicError(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	errA := errors.New("job 0 failed")
	errB := errors.New("job 1 failed")
	started := make(chan struct{})
	jobs := []job{
		func(ctx context.Context) error {
			close(started)
			<-ctx.Done() // wait for job 1's failure to cancel the pool
			return errA
		},
		func(ctx context.Context) error {
			<-started // job 0 is definitely running, not skippable
			return errB
		},
	}
	if err := runParallel(jobs); !errors.Is(err, errA) {
		t.Fatalf("got %v, want %v", err, errA)
	}
}

// TestRunParallelCancelsOutstanding: after the first failure, queued jobs
// are skipped rather than run. With one worker this is exact: only the
// failing job executes.
func TestRunParallelCancelsOutstanding(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	boom := errors.New("boom")
	var executed atomic.Int64
	jobs := []job{
		func(ctx context.Context) error {
			executed.Add(1)
			return boom
		},
	}
	for i := 0; i < 16; i++ {
		jobs = append(jobs, func(ctx context.Context) error {
			executed.Add(1)
			return nil
		})
	}
	if err := runParallel(jobs); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if n := executed.Load(); n != 1 {
		t.Fatalf("%d jobs executed after the failure, want 1", n)
	}
}

// TestRunParallelAllSucceed: the happy path still runs everything.
func TestRunParallelAllSucceed(t *testing.T) {
	var executed atomic.Int64
	var jobs []job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, func(ctx context.Context) error {
			executed.Add(1)
			return nil
		})
	}
	if err := runParallel(jobs); err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 8 {
		t.Fatalf("%d jobs executed, want 8", n)
	}
}

// TestSuiteDiskCache: a second Suite over the same cache directory
// serves the timing run from disk — identical record, byte-identical
// report — without re-simulating.
func TestSuiteDiskCache(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t, "queens")

	c1, err := simsvc.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite()
	s1.SetCache(c1)
	st1, err := s1.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Entries != 1 || st.Hits != 0 {
		t.Fatalf("after fresh run: %+v", st)
	}
	rep1, err := s1.Report("test").Encode()
	if err != nil {
		t.Fatal(err)
	}

	c2, err := simsvc.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite()
	s2.SetCache(c2)
	st2, err := s2.Timing(w, "base", MBase32)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("second suite did not hit the disk cache: %+v", st)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("cache-served record differs:\n%+v\nvs\n%+v", st1, st2)
	}
	rep2, err := s2.Report("test").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("cache-served report differs:\n%s\nvs\n%s", rep1, rep2)
	}

	hits, ok := s2.CacheStats()
	if !ok || hits.Hits != 1 {
		t.Fatalf("CacheStats = %+v, %v", hits, ok)
	}
}
