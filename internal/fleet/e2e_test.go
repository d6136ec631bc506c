package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// e2eMaxInsts keeps end-to-end simulations fast (shared convention with
// the simsvc e2e tests).
const e2eMaxInsts = 5_000_000

func resolveMachine(m string) (pipeline.Config, error) {
	return experiments.MachineConfig(experiments.Machine(m))
}

// serve starts a full simsvc server over runner with the given worker
// pool, drained when the test ends.
func serve(t *testing.T, runner *simsvc.Runner, workers int) *httptest.Server {
	t.Helper()
	s, err := simsvc.NewServer(simsvc.ServerConfig{Workers: workers, QueueDepth: 64}, runner)
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
	return hs
}

// newWorkerDaemon starts one real worker facd: a full simsvc server over
// a simulating runner with its own persistent cache.
func newWorkerDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	cache, err := simsvc.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts, Cache: cache}, 2)
}

// newCoordinator starts a coordinator facd: a Runner whose Remote is a
// fleet dispatcher over the given workers — the same server surface as a
// single daemon, with execution sharded across the fleet.
func newCoordinator(t *testing.T, workers []string, hedge time.Duration) (string, *fleet.Dispatcher) {
	t.Helper()
	d, err := fleet.New(fleet.Config{
		Workers:    workers,
		HedgeAfter: hedge,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts, Remote: d}
	return serve(t, runner, 4).URL, d
}

// newSingleDaemon is the fleet's reference: one daemon simulating
// locally, no dispatcher in the path.
func newSingleDaemon(t *testing.T) string {
	t.Helper()
	return serve(t, &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts}, 2).URL
}

// e2eJobs builds a job set whose shard keys cover every worker on the
// ring, extending a base grid with MaxInsts-perturbed runs until each
// worker owns at least one job (the perturbed bound exceeds the
// programs' natural instruction counts, so timing is unaffected).
func e2eJobs(t *testing.T, workers []string) []simsvc.JobSpec {
	t.Helper()
	jobs := []simsvc.JobSpec{
		{Workload: "queens", Toolchain: "base", Machine: "base32"},
		{Workload: "queens", Toolchain: "base", Machine: "base16"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac16"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac32"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac32+rr"},
	}
	local := &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts}
	ring, err := fleet.NewRing(workers)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, j := range jobs {
		key, err := local.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		covered[ring.Owner(key)] = true
	}
	for i := uint64(1); len(covered) < len(workers); i++ {
		if i > 10_000 {
			t.Fatal("could not cover every worker's shard")
		}
		j := simsvc.JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32", MaxInsts: e2eMaxInsts + i}
		key, err := local.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		if !covered[ring.Owner(key)] {
			covered[ring.Owner(key)] = true
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func submitBatch(t *testing.T, base string, jobs []simsvc.JobSpec) (batch string, jobIDs []string) {
	t.Helper()
	batch, jobIDs, err := (&simsvc.Client{Base: base}).Submit(context.Background(), jobs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return batch, jobIDs
}

// waitBatchDone waits for the batch to end and fails the test if any job
// failed or was lost.
func waitBatchDone(t *testing.T, base, batch string, total int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := (&simsvc.Client{Base: base}).WaitBatch(ctx, batch, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("batch never finished: %v", err)
	}
	if st.Done != total || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("batch finished done=%d failed=%d cancelled=%d, want %d done",
			st.Done, st.Failed, st.Cancelled, total)
	}
}

func fetchReport(t *testing.T, base, batch string) []byte {
	t.Helper()
	data, err := (&simsvc.Client{Base: base}).Report(context.Background(), batch)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return data
}

// TestE2EFleetMatchesSingleDaemon: a batch run through a coordinator and
// two sharded workers produces report bytes identical to the same batch
// on a single stand-alone daemon — the determinism contract survives
// distribution. Every worker serves part of the batch, and job views
// attribute each run to the worker that executed it.
func TestE2EFleetMatchesSingleDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	w0, w1 := newWorkerDaemon(t), newWorkerDaemon(t)
	workers := []string{w0.URL, w1.URL}
	coord, disp := newCoordinator(t, workers, -1)
	jobs := e2eJobs(t, workers)

	batch, jobIDs := submitBatch(t, coord, jobs)
	waitBatchDone(t, coord, batch, len(jobs))
	fleetReport := fetchReport(t, coord, batch)

	single := newSingleDaemon(t)
	refBatch, _ := submitBatch(t, single, jobs)
	waitBatchDone(t, single, refBatch, len(jobs))
	refReport := fetchReport(t, single, refBatch)

	if !bytes.Equal(fleetReport, refReport) {
		t.Fatalf("fleet report differs from single daemon:\n--- fleet ---\n%s\n--- single ---\n%s",
			fleetReport, refReport)
	}

	// Every worker served at least one job, and together they served all.
	var total uint64
	for _, st := range disp.FleetStats() {
		if st.Completed == 0 {
			t.Fatalf("worker %s completed nothing: %+v", st.URL, disp.FleetStats())
		}
		total += st.Completed
	}
	if total != uint64(len(jobs)) {
		t.Fatalf("fleet completed %d jobs, want %d", total, len(jobs))
	}

	// Job views attribute the serving worker.
	for _, id := range jobIDs {
		resp, err := http.Get(coord + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Worker != w0.URL && jv.Worker != w1.URL {
			t.Fatalf("job %s attributed to %q, want one of the workers", id, jv.Worker)
		}
	}
}

// TestE2EFleetSurvivesWorkerKill: killing a worker mid-batch loses no
// jobs — its shard fails over to the survivor — and the drained batch's
// report is still byte-identical to a single daemon's.
func TestE2EFleetSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	victim, survivor := newWorkerDaemon(t), newWorkerDaemon(t)
	workers := []string{victim.URL, survivor.URL}
	// A tight hedge so the kill is absorbed quickly: in-flight requests
	// die with the connection and fail over; stragglers hedge.
	coord, disp := newCoordinator(t, workers, 300*time.Millisecond)
	jobs := e2eJobs(t, workers)

	batch, _ := submitBatch(t, coord, jobs)
	// SIGKILL equivalent for an httptest worker: sever live connections
	// (aborting its in-flight simulations) and stop accepting new ones,
	// while the batch is still in flight.
	victim.CloseClientConnections()
	victim.Close()

	waitBatchDone(t, coord, batch, len(jobs))
	fleetReport := fetchReport(t, coord, batch)

	single := newSingleDaemon(t)
	refBatch, _ := submitBatch(t, single, jobs)
	waitBatchDone(t, single, refBatch, len(jobs))
	refReport := fetchReport(t, single, refBatch)

	if !bytes.Equal(fleetReport, refReport) {
		t.Fatalf("post-kill fleet report differs from single daemon:\n--- fleet ---\n%s\n--- single ---\n%s",
			fleetReport, refReport)
	}
	// The survivor picked up the dead worker's shard.
	for _, st := range disp.FleetStats() {
		if st.URL == survivor.URL && st.Completed < uint64(len(jobs)) {
			// Some jobs may have completed on the victim before the kill;
			// the survivor must have served everything that remained.
			if st.Completed == 0 {
				t.Fatalf("survivor served nothing: %+v", disp.FleetStats())
			}
		}
	}
}

// postRun POSTs one spec to base's /v1/run and returns the status and
// the error message of a failed run.
func postRun(t *testing.T, base string, spec simsvc.JobSpec) (int, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&payload)
	return resp.StatusCode, payload.Error
}

// TestE2ERunFailureStaysOnOneWorker: a run that fails where it runs (here
// queens over its instruction budget) is answered 422 by a worker and by
// a coordinator. Every worker would fail it the same way, so the
// coordinator dispatches it once and leaves both workers healthy.
func TestE2ERunFailureStaysOnOneWorker(t *testing.T) {
	w1, w2 := newWorkerDaemon(t), newWorkerDaemon(t)
	coord, disp := newCoordinator(t, []string{w1.URL, w2.URL}, -1)
	spec := simsvc.JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32", MaxInsts: 400_000}

	status, msg := postRun(t, coord, spec)
	if status != http.StatusUnprocessableEntity || !strings.Contains(msg, "budget") {
		t.Errorf("coordinator answered %d (%s), want 422 naming the budget", status, msg)
	}
	var dispatched uint64
	for _, st := range disp.FleetStats() {
		dispatched += st.Dispatched
		if !st.Healthy {
			t.Errorf("worker %s unhealthy after a run failure: %+v", st.URL, st)
		}
	}
	if dispatched != 1 {
		t.Errorf("dispatched %d times, want once: %+v", dispatched, disp.FleetStats())
	}
	if status, msg := postRun(t, w2.URL, spec); status != http.StatusUnprocessableEntity {
		t.Errorf("worker answered %d (%s), want 422", status, msg)
	}
}
