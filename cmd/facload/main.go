// Command facload is facd's scenario harness. It builds the daemon once,
// then runs three scenarios in order against fresh daemons and prints one
// OK line per scenario (docs/SERVICE.md lists each scenario's checks):
//
//   - smoke: one tenant through the batch API, the result cache, the SSE
//     progress stream, the hardening probes and a SIGHUP token rotation;
//   - tenants: an overload soak of equally weighted tenants for -duration,
//     ended by a SIGTERM while they still submit;
//   - fleet: a coordinator over worker daemons, one SIGKILLed mid-batch,
//     checked against a stand-alone reference daemon.
//
// Every daemon that is not killed must pass the SIGTERM drain check.
//
// Usage (from the repo root):
//
//	go run ./cmd/facload                # 30s tenants soak
//	go run ./cmd/facload -duration 5s   # the CI run
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simsvc"
)

// Scenario parameters. A small worker pool and tight per-tenant quotas
// keep the tenants soak saturated on a small host.
const (
	soakTenants    = 3
	soakWorkers    = 2
	maxQueuedPer   = 8
	maxInFlightPer = 2
	fairMin        = 0.5             // min/max per-tenant completed runs
	p99Max         = 5 * time.Second // p99 queue wait
	minPerTenant   = 5               // completed runs every tenant must reach
	fleetWorkers   = 2
	fleetJobs      = 12
)

// soakJob is the short run the tenants and fleet scenarios submit. Each
// copy sets a unique max_insts above the natural count (naturalInsts), so
// it is a distinct cache key and a real simulation that ends naturally.
var soakJob = simsvc.JobSpec{Workload: "hashp", Toolchain: "base", Machine: "base32"}

// httpc carries every request. Its timeout bounds one request; waits for
// whole batches are bounded by their contexts.
var httpc = &http.Client{Timeout: 2 * time.Minute}

var soakFor = flag.Duration("duration", 30*time.Second, "tenants soak length before the mid-soak SIGTERM")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "facload:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "facload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "facd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/facd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build facd: %w", err)
	}

	for _, sc := range []struct {
		name string
		run  func(bin, dir string) error
	}{{"smoke", smoke}, {"tenants", tenants}, {"fleet", fleet}} {
		t0 := time.Now()
		if err := sc.run(bin, tmp); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		fmt.Printf("facload: %s OK (%.1fs)\n", sc.name, time.Since(t0).Seconds())
	}
	return nil
}

// daemon is one facd process started by startFacd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	out     bytes.Buffer  // stdout; read it only once scanned is closed
	scanned chan struct{} // closed when stdout reaches EOF
}

// startFacd starts facd on an ephemeral loopback port and waits for its
// "facd listening on" line. The caller stops it with drain or kill.
func startFacd(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start facd: %w", err)
	}
	d := &daemon{cmd: cmd, scanned: make(chan struct{})}
	ready := make(chan string, 1) // facd announces its address once
	go func() {
		defer close(d.scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.out.WriteString(sc.Text() + "\n")
			if addr, ok := strings.CutPrefix(sc.Text(), "facd listening on "); ok {
				ready <- addr
			}
		}
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("facd never announced its address")
	}
}

// kill ends the daemon without a drain; it is a no-op once it has exited.
func (d *daemon) kill() { d.cmd.Process.Kill() }

// client returns an API client that presents token ("" = none).
func (d *daemon) client(token string) *simsvc.Client {
	return &simsvc.Client{Base: d.base, Token: token, HTTPClient: httpc}
}

// drain sends SIGTERM, reads stdout to EOF and checks the shutdown: exit
// 0 and a drain line with submitted == completed+failed+cancelled and
// failed == 0.
func (d *daemon) drain() (simsvc.DrainStats, error) {
	var st simsvc.DrainStats
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return st, err
	}
	// Reach EOF before Wait: Wait closes the pipe on exit, which can drop
	// the drain line if the scanner has not read it yet.
	select {
	case <-d.scanned:
	case <-time.After(5 * time.Minute):
		return st, fmt.Errorf("facd %s did not exit after SIGTERM", d.base)
	}
	out := d.out.String()
	if err := d.cmd.Wait(); err != nil {
		return st, fmt.Errorf("facd %s exited uncleanly: %w\noutput:\n%s", d.base, err, out)
	}
	_, line, _ := strings.Cut(out, "facd drained cleanly (")
	if _, err := fmt.Sscanf(line, "submitted=%d completed=%d failed=%d cancelled=%d)",
		&st.Submitted, &st.Completed, &st.Failed, &st.Cancelled); err != nil {
		return st, fmt.Errorf("facd %s printed no clean-drain line (%v); output:\n%s", d.base, err, out)
	}
	if st.Submitted != st.Completed+st.Failed+st.Cancelled || st.Failed != 0 {
		return st, fmt.Errorf("facd %s drain dropped or failed jobs: %+v", d.base, st)
	}
	return st, nil
}

// raw sends a request the Client does not expose, or whose response it
// would interpret. The caller closes the response body.
func raw(method, url, token string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return httpc.Do(req)
}

// metrics holds the GET /metrics fields the scenarios check.
type metrics struct {
	Jobs struct {
		CacheHits uint64 `json:"cache_hits"`
	} `json:"jobs"`
	Fleet []simsvc.WorkerStatus `json:"fleet"`
}

func (d *daemon) metrics() (m metrics, err error) {
	resp, err := raw(http.MethodGet, d.base+"/metrics", "", nil)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// finish waits for a batch to end with all its jobs done and returns its
// report.
func finish(c *simsvc.Client, batch string, jobs int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	st, err := c.WaitBatch(ctx, batch, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if st.Done != jobs || st.Failed != 0 || st.Cancelled != 0 {
		return nil, fmt.Errorf("batch %s ended %+v, want %d done", batch, st, jobs)
	}
	return c.Report(ctx, batch)
}

// refused reports whether err is the server refusing with status.
func refused(err error, status int) bool {
	var se *simsvc.StatusError
	return errors.As(err, &se) && se.Status == status
}

// naturalInsts runs soakJob once synchronously, outside the batch
// accounting, and returns its natural instruction count.
func naturalInsts(c *simsvc.Client) (uint64, error) {
	rec, _, err := c.RunSync(context.Background(), soakJob)
	if err != nil {
		return 0, fmt.Errorf("probe run: %w", err)
	}
	if rec.Insts == 0 {
		return 0, errors.New("probe run executed no instructions")
	}
	return rec.Insts, nil
}

// smoke drives one tenant through the API and the hardening probes on a
// daemon with a fresh result cache.
func smoke(bin, dir string) error {
	// The tenant table is a file so the SIGHUP probe can rotate the token.
	clients := filepath.Join(dir, "clients.conf")
	if err := os.WriteFile(clients, []byte("# facload smoke tenant\nsmoke:smoketoken:1\n"), 0o644); err != nil {
		return err
	}
	d, err := startFacd(bin, "-cache", filepath.Join(dir, "cache"), "-max-insts", "5000000",
		"-clients-file", clients, "-max-queued-per-client", "2", "-max-body-bytes", "4096")
	if err != nil {
		return err
	}
	defer d.kill()

	ctx := context.Background()
	c := d.client("smoketoken")
	queens := []simsvc.JobSpec{{Workload: "queens", Toolchain: "base", Machine: "base32"}}

	// The batch runs twice: a fresh simulation, then a copy the fresh
	// cache serves with the same report bytes.
	var id string
	var reports [2][]byte
	for i := range reports {
		if id, _, err = c.Submit(ctx, queens); err != nil {
			return err
		}
		if reports[i], err = finish(c, id, 1); err != nil {
			return err
		}
	}
	if m, err := d.metrics(); err != nil || m.Jobs.CacheHits == 0 || !bytes.Equal(reports[0], reports[1]) {
		return fmt.Errorf("resubmitted batch was not served from cache (%+v, %v)", m.Jobs, err)
	}
	report, err := obs.DecodeReport(reports[0])
	if err != nil {
		return fmt.Errorf("report does not decode: %w", err)
	}
	if len(report.Records) != 1 {
		return fmt.Errorf("report has %d records, want 1", len(report.Records))
	}
	if rec := report.Records[0]; rec.Benchmark != "queens" || rec.Cycles == 0 || rec.IPC == 0 {
		return fmt.Errorf("degenerate record: %+v", rec)
	}

	// SSE: subscribing to the finished batch replays its whole
	// fac/progress/v1 history, then ends the stream.
	resp, err := raw(http.MethodGet, d.base+"/v1/batches/"+id+"/events", "smoketoken", nil)
	if err != nil {
		return err
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("events content type %q, want text/event-stream", ct)
	}
	for _, want := range []string{"event: hello", obs.ProgressEventSchema, `"event":"done"`, `"cache_hit":true`, `"event":"batch"`} {
		if !bytes.Contains(stream, []byte(want)) {
			return fmt.Errorf("progress stream missing %q:\n%s", want, stream)
		}
	}

	// Hardening probes: each abuse is refused with its status, and none
	// disturbs the daemon (the clean drain below is the proof).
	if _, _, err := d.client("").Submit(ctx, queens); !refused(err, http.StatusUnauthorized) {
		return fmt.Errorf("unauthenticated submit got %v, want 401", err)
	}
	// A 3-job batch cannot fit the tenant's 2-job queue quota, whatever
	// the queue holds. Raw, because the Client reads a missing
	// Retry-After as 1s.
	job := `{"workload": "queens", "toolchain": "base", "machine": "base32"}`
	burst := []byte(`{"jobs": [` + job + `,` + job + `,` + job + `]}`)
	if resp, err = raw(http.MethodPost, d.base+"/v1/batches", "smoketoken", burst); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("over-quota burst got %d with Retry-After %q, want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	big := []simsvc.JobSpec{{Workload: strings.Repeat("a", 5000), Toolchain: "base", Machine: "base32"}}
	if _, _, err := c.Submit(ctx, big); !refused(err, http.StatusRequestEntityTooLarge) {
		return fmt.Errorf("oversized body got %v, want 413", err)
	}
	if resp, err = raw(http.MethodGet, d.base+"/v1/jobs/jxyz", "smoketoken", nil); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("malformed job id got %d, want 404", resp.StatusCode)
	}

	// SIGHUP reload rotates the token live: the old one stops working,
	// the new one works, and the same process drains below.
	if err := os.WriteFile(clients, []byte("smoke:rotatedtoken:1\n"), 0o644); err != nil {
		return err
	}
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return err
	}
	// A submit that races ahead of the reload is admitted, and its
	// cache-hot batch drains below.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		if _, _, err := c.Submit(ctx, queens); refused(err, http.StatusUnauthorized) {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("old token not refused 10s after SIGHUP reload (last: %v)", err)
		}
	}
	if _, _, err := d.client("rotatedtoken").Submit(ctx, queens); err != nil {
		return fmt.Errorf("rotated token: %w", err)
	}
	_, err = d.drain()
	return err
}

// tenants soaks one daemon with an open-loop submitter per tenant and
// sends SIGTERM while they are still submitting: the window the drain's
// drop-free guarantee covers.
func tenants(bin, dir string) error {
	var clients []string
	for ten := range soakTenants {
		clients = append(clients, fmt.Sprintf("t%d:tok-t%d:1", ten, ten))
	}
	accessLog := filepath.Join(dir, "access.jsonl")
	d, err := startFacd(bin, "-workers", fmt.Sprint(soakWorkers), "-queue", fmt.Sprint(soakTenants*maxQueuedPer),
		"-clients", strings.Join(clients, ","), "-max-queued-per-client", fmt.Sprint(maxQueuedPer),
		"-max-inflight-per-client", fmt.Sprint(maxInFlightPer), "-access-log", accessLog)
	if err != nil {
		return err
	}
	defer d.kill()
	natural, err := naturalInsts(d.client("tok-t0"))
	if err != nil {
		return err
	}
	fmt.Printf("facload: soaking %s for %v (%d tenants, %d workers, %d insts/run)\n",
		d.base, *soakFor, soakTenants, soakWorkers, natural)

	// Single-job batches. 429 is backpressure and is retried. 503
	// (draining) and transport errors end a submitter only once the
	// SIGTERM is on its way; anything else fails the run.
	var (
		seq        atomic.Uint64
		terminated atomic.Bool
		wg         sync.WaitGroup
		accepted   [soakTenants]atomic.Uint64
		errs       [soakTenants]error
	)
	for ten := range soakTenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.client(fmt.Sprintf("tok-t%d", ten))
			for {
				job := soakJob
				job.MaxInsts = natural + 1 + seq.Add(1)
				_, _, err := c.Submit(context.Background(), []simsvc.JobSpec{job})
				var retry *simsvc.RetryError
				var status *simsvc.StatusError
				switch {
				case err == nil:
					accepted[ten].Add(1)
				case errors.As(err, &retry):
					time.Sleep(20 * time.Millisecond)
				case terminated.Load() && (!errors.As(err, &status) || status.Status == http.StatusServiceUnavailable):
					return
				default:
					errs[ten] = fmt.Errorf("tenant t%d: %w", ten, err)
					return
				}
			}
		}()
	}
	time.Sleep(*soakFor)
	terminated.Store(true)
	st, drainErr := d.drain()
	d.kill() // a failed drain may leave facd up; the submitters stop once it is gone
	wg.Wait()
	if err := errors.Join(append(errs[:], drainErr)...); err != nil {
		return err
	}

	// The access log has one complete event per admitted job: each
	// tenant's completed runs and the queue-wait distribution.
	f, err := os.Open(accessLog)
	if err != nil {
		return err
	}
	defer f.Close()
	done := make(map[string]uint64)
	var waits []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.AccessEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("bad access-log line %q: %w", sc.Text(), err)
		}
		if e.Event == obs.AccessComplete {
			done[e.Client]++
			waits = append(waits, e.QueueWaitMS)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var total uint64
	minDone, maxDone := ^uint64(0), uint64(0)
	for ten := range soakTenants {
		n := done[fmt.Sprintf("t%d", ten)]
		fmt.Printf("facload: tenant t%d accepted=%d completed=%d\n", ten, accepted[ten].Load(), n)
		total += accepted[ten].Load()
		minDone, maxDone = min(minDone, n), max(maxDone, n)
	}
	// The daemon, the clients and the access log must agree: a job
	// dropped unreported cannot hide on any side.
	if st.Submitted != total || st.Cancelled != 0 || uint64(len(waits)) != total {
		return fmt.Errorf("daemon drained %+v, clients saw %d accepted, access log has %d completions",
			st, total, len(waits))
	}
	if minDone < minPerTenant {
		return fmt.Errorf("a tenant completed only %d runs (floor %d)", minDone, minPerTenant)
	}
	ratio := float64(minDone) / float64(maxDone)
	if ratio < fairMin {
		return fmt.Errorf("unfair schedule: min/max completed ratio %.2f < %.2f (min=%d max=%d)",
			ratio, fairMin, minDone, maxDone)
	}
	sort.Float64s(waits)
	p99 := waits[(len(waits)*99+99)/100-1]
	fmt.Printf("facload: %d jobs drained cleanly, fairness ratio %.2f, queue wait p50=%.0fms p99=%.0fms\n",
		st.Submitted, ratio, waits[len(waits)/2], p99)
	if p99 > float64(p99Max.Milliseconds()) {
		return fmt.Errorf("queue wait p99 %.0fms exceeds %v", p99, p99Max)
	}
	return nil
}

// fleet runs one batch through a coordinator sharding over worker
// daemons, SIGKILLs a worker mid-batch, and compares the report with a
// stand-alone reference daemon's.
func fleet(bin, dir string) error {
	var workers []*daemon
	var urls []string
	for i := range fleetWorkers {
		w, err := startFacd(bin, "-workers", "2", "-queue", "64", "-cache", filepath.Join(dir, fmt.Sprintf("cache%d", i)))
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		defer w.kill()
		workers = append(workers, w)
		urls = append(urls, w.base)
	}
	// The coordinator simulates nothing: its runner is the fleet
	// dispatcher. A short hedge delay re-dispatches stragglers quickly
	// once a worker is killed.
	coord, err := startFacd(bin, "-workers", "4", "-queue", "64",
		"-coordinator", strings.Join(urls, ","), "-hedge-after", "2s")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer coord.kill()
	ref, err := startFacd(bin, "-workers", "2", "-queue", "64")
	if err != nil {
		return fmt.Errorf("reference daemon: %w", err)
	}
	defer ref.kill()

	// The probe goes through the coordinator, which also proves the
	// dispatch path end to end.
	ctx := context.Background()
	cc := coord.client("")
	natural, err := naturalInsts(cc)
	if err != nil {
		return err
	}
	jobs := make([]simsvc.JobSpec, fleetJobs)
	for i := range jobs {
		jobs[i] = soakJob
		jobs[i].MaxInsts = natural + 1 + uint64(i)
	}
	batch, _, err := cc.Submit(ctx, jobs)
	if err != nil {
		return fmt.Errorf("fleet submit: %w", err)
	}

	// SIGKILL one worker while the batch is in flight: its simulations
	// die with it, and the coordinator must fail its shard over.
	workers[0].kill()
	workers[0].cmd.Wait()
	fmt.Printf("facload: SIGKILLed worker %s mid-batch\n", workers[0].base)

	fleetReport, err := finish(cc, batch, fleetJobs)
	if err != nil {
		return fmt.Errorf("after the worker kill: %w", err)
	}

	// Every shard saw work, including the killed worker's.
	m, err := coord.metrics()
	if err != nil {
		return err
	}
	if len(m.Fleet) != fleetWorkers {
		return fmt.Errorf("/metrics reports %d fleet workers, want %d", len(m.Fleet), fleetWorkers)
	}
	var completed uint64
	for _, w := range m.Fleet {
		fmt.Printf("facload: worker %s dispatched=%d completed=%d\n", w.URL, w.Dispatched, w.Completed)
		if w.Dispatched == 0 {
			return fmt.Errorf("worker %s never received work for its shard", w.URL)
		}
		completed += w.Completed
	}
	if completed < fleetJobs {
		return fmt.Errorf("fleet completed %d dispatches for %d jobs", completed, fleetJobs)
	}

	// Distribution and the worker kill must be invisible in the bytes.
	rc := ref.client("")
	refBatch, _, err := rc.Submit(ctx, jobs)
	if err != nil {
		return fmt.Errorf("reference submit: %w", err)
	}
	refReport, err := finish(rc, refBatch, fleetJobs)
	if err != nil {
		return fmt.Errorf("reference daemon: %w", err)
	}
	if !bytes.Equal(fleetReport, refReport) {
		return fmt.Errorf("fleet report differs from reference daemon:\n--- fleet ---\n%s\n--- reference ---\n%s",
			fleetReport, refReport)
	}
	fmt.Printf("facload: %d jobs survived the worker kill, report byte-identical to reference (%d bytes)\n",
		fleetJobs, len(fleetReport))

	// The coordinator drains with a batch in flight, before the workers
	// it dispatches to.
	if _, _, err := cc.Submit(ctx, jobs[:fleetJobs/2]); err != nil {
		return fmt.Errorf("drain-batch submit: %w", err)
	}
	for _, d := range append([]*daemon{coord, ref}, workers[1:]...) {
		if _, err := d.drain(); err != nil {
			return err
		}
	}
	return nil
}
