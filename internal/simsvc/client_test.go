package simsvc

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// rejectSink reports each refused request's reason on a channel.
type rejectSink chan string

func (c rejectSink) Access(e obs.AccessEvent) {
	if e.Event == obs.AccessReject {
		c <- e.Reason
	}
}

// TestClientRunSyncWaitsOutQuota: a synchronous run that the daemon
// refuses with 429, because its tenant is at the in-flight cap, waits out
// the Retry-After and runs once the slot frees. If ctx ends while it
// waits, RunSync returns ctx's error at once, and the run never starts.
func TestClientRunSyncWaitsOutQuota(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 2)}
	// Room beyond the two refusals the test waits for: on a slow host the
	// second run's retry can be refused once more, and a full sink would
	// block the server's handler.
	rejects := make(rejectSink, 4)
	_, base := newTestServer(t, ServerConfig{Workers: 1, AccessLog: rejects}, r)
	release := sync.OnceFunc(func() { close(r.block) })
	t.Cleanup(release) // before the server's cleanups, which wait for the runs
	c := &Client{Base: base}
	spec := JobSpec{Workload: "sync", Toolchain: "base", Machine: "base32"}

	// The first run holds the tenant's only in-flight slot.
	first := make(chan error, 1)
	go func() {
		_, _, err := c.RunSync(context.Background(), spec)
		first <- err
	}()
	<-r.started

	// The sync Retry-After is 1s; this run's ctx ends well inside it.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err := c.RunSync(ctx, spec)
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(t0) >= time.Second {
		t.Fatalf("RunSync with a 200ms deadline at the cap = %v after %v; want ctx's error before the 1s Retry-After",
			err, time.Since(t0))
	}
	<-rejects

	second := make(chan error, 1)
	go func() {
		rec, _, err := c.RunSync(context.Background(), spec)
		if err == nil && rec.Benchmark != "sync" {
			err = errors.New("wrong record " + rec.Benchmark)
		}
		second <- err
	}()
	<-rejects // refused at the cap; now waiting out the Retry-After
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatalf("RunSync refused at the cap: %v; want the run once the slot frees", err)
	}
	if n := r.runs.Load(); n != 2 {
		t.Fatalf("runner ran %d jobs, want 2: the cancelled run must never start", n)
	}
}

// TestRunRefusesLaxRecord: a daemon's record with a key the record's
// reader does not know, or a known key in other case, which
// encoding/json would skip or match, fails the run, and the runner
// caches nothing.
func TestRunRefusesLaxRecord(t *testing.T) {
	spec := JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32"}
	own := `{"cache_hit":false,"record":{"schema":"fac/run-record/v1","benchmark":"queens","toolchain":"base","machine":"base32","cycles":5}}`
	for _, body := range []string{
		own,
		strings.Replace(own, `"cycles"`, `"worker":"w1","cycles"`, 1),
		strings.Replace(own, `"cycles"`, `"Cycles"`, 1),
	} {
		cache, err := OpenDiskCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{
			Resolve: func(string) (pipeline.Config, error) { return pipeline.DefaultConfig(), nil },
			Cache:   cache,
			Remote: &Client{Base: "http://daemon", HTTPClient: &http.Client{
				Transport: cannedTransport{status: http.StatusOK, body: []byte(body)},
			}},
		}
		out, err := r.Run(context.Background(), spec)
		entries := cache.Stats().Entries
		if body == own {
			if err != nil || out.Rec.Cycles != 5 || entries != 1 {
				t.Fatalf("the spec's own record: cycles %d, err %v, %d entries cached", out.Rec.Cycles, err, entries)
			}
			continue
		}
		if err == nil || entries != 0 {
			t.Fatalf("%s: err %v, %d entries cached; want an error and none", body, err, entries)
		}
	}
}
