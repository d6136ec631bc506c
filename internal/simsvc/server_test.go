package simsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubRunner is a controllable JobRunner: jobs block until released (or
// until their context is done), so queue and drain states are reachable
// deterministically.
type stubRunner struct {
	block   chan struct{} // non-nil: Run waits for close(block) or ctx
	started chan string   // non-nil: receives each spec's workload as it starts
	runs    atomic.Int64
	sawCtx  atomic.Bool // a Run returned because its ctx ended
}

func (r *stubRunner) Validate(spec JobSpec) error {
	if spec.Workload == "" {
		return fmt.Errorf("empty workload")
	}
	if strings.HasPrefix(spec.Workload, "invalid") {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	return nil
}

func (r *stubRunner) Run(ctx context.Context, spec JobSpec) (Served, error) {
	r.runs.Add(1)
	if r.started != nil {
		r.started <- spec.Workload
	}
	if strings.HasPrefix(spec.Workload, "fail") {
		return Served{}, fmt.Errorf("simulated failure for %s", spec.Workload)
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			r.sawCtx.Store(true)
			return Served{}, fmt.Errorf("stub: %w", ctx.Err())
		}
	}
	return Served{Rec: testRec(spec.Workload, 100)}, nil
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

type submitResponse struct {
	Batch string   `json:"batch"`
	Jobs  []string `json:"jobs"`
}

// getBatch polls one batch. Its total and per-state counts must equal a
// recount of its jobs' states in the same response.
func getBatch(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	b := decode[map[string]any](t, resp)
	jobs := b["jobs"].([]any)
	recount := map[string]float64{"total": float64(len(jobs))}
	for _, j := range jobs {
		recount[j.(map[string]any)["state"].(string)]++
	}
	for _, k := range []string{"total", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		if b[k] != recount[k] {
			t.Fatalf("batch %s reports %s=%v, its jobs recount to %v: %+v", id, k, b[k], recount[k], b)
		}
	}
	if b["terminal"] != (recount[StateQueued]+recount[StateRunning] == 0) {
		t.Fatalf("batch %s terminal=%v disagrees with its jobs: %+v", id, b["terminal"], b)
	}
	return b
}

func waitTerminal(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b := getBatch(t, base, id)
		if b["terminal"] == true {
			return b
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("batch %s did not reach a terminal state", id)
	return nil
}

// newTestServer builds a started server + httptest frontend.
func newTestServer(t *testing.T, cfg ServerConfig, runner JobRunner) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs.URL
}

// TestServerBatchLifecycle: submit, poll to terminal, fetch per-job
// results and the batch report; failed jobs are reported as failed
// without sinking the batch.
func TestServerBatchLifecycle(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 2}, &stubRunner{})
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "alpha", Toolchain: "base", Machine: "base32"},
		{Workload: "fail-beta", Toolchain: "base", Machine: "base32"},
	}}))
	if sub.Batch == "" || len(sub.Jobs) != 2 {
		t.Fatalf("submit response %+v", sub)
	}
	b := waitTerminal(t, base, sub.Batch)
	if b["done"].(float64) != 1 || b["failed"].(float64) != 1 {
		t.Fatalf("batch counts %+v", b)
	}

	resp, err := http.Get(base + "/v1/jobs/" + sub.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	jv := decode[jobView](t, resp)
	if jv.State != StateDone || jv.Record == nil || jv.Record.Benchmark != "alpha" {
		t.Fatalf("job view %+v", jv)
	}

	// The report includes only successful records.
	rresp, err := http.Get(base + "/v1/batches/" + sub.Batch + "/report")
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	data.ReadFrom(rresp.Body)
	rresp.Body.Close()
	rep, err := obs.DecodeReport(data.Bytes())
	if err != nil {
		t.Fatalf("report: %v\n%s", err, data.Bytes())
	}
	if len(rep.Records) != 1 || rep.Records[0].Benchmark != "alpha" {
		t.Fatalf("report records %+v", rep.Records)
	}
}

// TestServerValidationRejects: a batch naming an unknown workload is
// rejected whole with 400 before anything is enqueued.
func TestServerValidationRejects(t *testing.T) {
	s, base := newTestServer(t, ServerConfig{Workers: 1}, &stubRunner{})
	resp := postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "alpha", Toolchain: "base", Machine: "base32"},
		{Workload: "invalid-x", Toolchain: "base", Machine: "base32"},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs enqueued from a rejected batch", n)
	}
}

// TestServerBackpressure: when the queue cannot take a batch, the server
// answers 429 with a Retry-After hint and enqueues nothing.
func TestServerBackpressure(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 16)}
	defer close(r.block)
	_, base := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 2}, r)

	// One job occupies the single worker; two more fill the queue.
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "w1", Toolchain: "base", Machine: "base32"},
	}}))
	<-r.started // the worker has dequeued w1 and is blocked inside Run
	resp := postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "w2", Toolchain: "base", Machine: "base32"},
		{Workload: "w3", Toolchain: "base", Machine: "base32"},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	over := postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "w4", Toolchain: "base", Machine: "base32"},
	}})
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	over.Body.Close()
	_ = sub
}

// TestServerCancelBatch: cancelling a batch stops queued jobs before
// they run and aborts the running one via its context.
func TestServerCancelBatch(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 16)}
	_, base := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 8}, r)

	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "run1", Toolchain: "base", Machine: "base32"},
		{Workload: "queued2", Toolchain: "base", Machine: "base32"},
		{Workload: "queued3", Toolchain: "base", Machine: "base32"},
	}}))
	<-r.started // run1 is inside Run, blocked; the rest are queued
	if b := getBatch(t, base, sub.Batch); b["running"] != 1.0 || b["queued"] != 2.0 {
		t.Fatalf("batch before cancel: %+v", b)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/batches/"+sub.Batch, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	b := waitTerminal(t, base, sub.Batch)
	if b["cancelled"].(float64) != 3 {
		t.Fatalf("batch after cancel: %+v", b)
	}
	if !r.sawCtx.Load() {
		t.Fatal("running job never observed its context cancellation")
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d jobs entered Run, want only the pre-cancel one", got)
	}
	close(r.block)
}

// TestServerJobTimeout: the per-job deadline cancels a stuck job and the
// job reports failed (deadline exceeded), promptly.
func TestServerJobTimeout(t *testing.T) {
	r := &stubRunner{block: make(chan struct{})}
	defer close(r.block)
	_, base := newTestServer(t, ServerConfig{Workers: 1, JobTimeout: 50 * time.Millisecond}, r)

	start := time.Now()
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "stuck", Toolchain: "base", Machine: "base32"},
	}}))
	b := waitTerminal(t, base, sub.Batch)
	if b["failed"].(float64) != 1 {
		t.Fatalf("batch %+v, want 1 failed", b)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline enforcement took %v", d)
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	jv := decode[jobView](t, resp)
	if !strings.Contains(jv.Error, "deadline") {
		t.Fatalf("job error %q does not mention the deadline", jv.Error)
	}
}

// TestServerDrain: Drain finishes queued work, flips healthz to 503,
// rejects new submissions with 503, and returns once idle.
func TestServerDrain(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 16)}
	s, base := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 8}, r)

	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "d1", Toolchain: "base", Machine: "base32"},
		{Workload: "d2", Toolchain: "base", Machine: "base32"},
	}}))
	<-r.started // d1 running, d2 queued

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Draining state must be visible before the pool empties.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rej := postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "late", Toolchain: "base", Machine: "base32"},
	}})
	if rej.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rej.StatusCode)
	}
	rej.Body.Close()

	close(r.block) // let d1 (and then the queued d2) finish
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	b := getBatch(t, base, sub.Batch)
	if b["done"].(float64) != 2 {
		t.Fatalf("after drain: %+v, want both jobs done", b)
	}
}

// TestServerSyncRunClientDisconnect: an aborted /v1/run request cancels
// the in-flight simulation through the request context.
func TestServerSyncRunClientDisconnect(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	defer close(r.block)
	_, base := newTestServer(t, ServerConfig{Workers: 1}, r)

	body, _ := json.Marshal(JobSpec{Workload: "sync", Toolchain: "base", Machine: "base32"})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(body))
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-r.started // handler is inside Run
	cancel()    // client disconnects
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned no error to the client")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !r.sawCtx.Load() {
		if time.Now().After(deadline) {
			t.Fatal("runner never observed the client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerMetrics: /metrics surfaces queue/worker state, job counters,
// and per-job stall/latency summaries.
func TestServerMetrics(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 2}, &stubRunner{})
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "m1", Toolchain: "base", Machine: "base32"},
		{Workload: "m2", Toolchain: "base", Machine: "base32"},
	}}))
	waitTerminal(t, base, sub.Batch)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[map[string]any](t, resp)
	jobs := m["jobs"].(map[string]any)
	if jobs["submitted"].(float64) != 2 || jobs["completed"].(float64) != 2 {
		t.Fatalf("metrics jobs %+v", jobs)
	}
	runs := m["runs"].([]any)
	if len(runs) != 2 {
		t.Fatalf("metrics runs %+v", runs)
	}
	first := runs[0].(map[string]any)
	for _, field := range []string{"job", "key", "cycles", "ipc", "stall_cycles", "load_latency_mean"} {
		if _, ok := first[field]; !ok {
			t.Fatalf("run summary missing %q: %+v", field, first)
		}
	}
	if m["workers"].(float64) != 2 {
		t.Fatalf("metrics workers %+v", m["workers"])
	}
}

// --- multi-tenant hardening tests (auth, quotas, robustness, access log) ---

// doReq issues a request with an optional bearer token.
func doReq(t *testing.T, method, url, token string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func oneJob(w string) submitRequest {
	return submitRequest{Jobs: []JobSpec{{Workload: w, Toolchain: "base", Machine: "base32"}}}
}

// TestServerAuth: with clients configured, requests without a valid
// bearer token get 401; /healthz and /metrics stay open.
func TestServerAuth(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{
		Workers: 1,
		Clients: []TenantConfig{{Name: "alice", Token: "tok-a"}},
	}, &stubRunner{})

	body := mustJSON(t, oneJob("w"))
	for name, resp := range map[string]*http.Response{
		"no token":      doReq(t, "POST", base+"/v1/batches", "", body),
		"unknown token": doReq(t, "POST", base+"/v1/batches", "nope", body),
		"GET no token":  doReq(t, "GET", base+"/v1/jobs/j1", "", nil),
	} {
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s: status %d, want 401", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A malformed scheme is 401 too.
	req, _ := http.NewRequest("POST", base+"/v1/batches", bytes.NewReader(body))
	req.Header.Set("Authorization", "Basic dXNlcjpwYXNz")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("malformed scheme: status %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	ok := doReq(t, "POST", base+"/v1/batches", "tok-a", body)
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("valid token: status %d, want 202", ok.StatusCode)
	}
	ok.Body.Close()

	for _, path := range []string{"/healthz", "/metrics"} {
		resp := doReq(t, "GET", base+path, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without token: status %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServerTenantQuota: one tenant exhausting its queued quota gets 429
// with Retry-After while another tenant still submits freely — per-client
// backpressure, not global.
func TestServerTenantQuota(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 16)}
	defer close(r.block)
	_, base := newTestServer(t, ServerConfig{
		Workers: 1, QueueDepth: 32,
		Clients: []TenantConfig{
			{Name: "greedy", Token: "tok-g", MaxQueued: 2, MaxInFlight: 1},
			{Name: "modest", Token: "tok-m", MaxQueued: 4},
		},
	}, r)

	// Occupy the single worker with greedy's first job, then fill greedy's
	// queue quota exactly.
	resp := doReq(t, "POST", base+"/v1/batches", "tok-g", mustJSON(t, oneJob("g-run")))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-r.started
	resp = doReq(t, "POST", base+"/v1/batches", "tok-g", mustJSON(t, submitRequest{Jobs: []JobSpec{
		{Workload: "g1", Toolchain: "base", Machine: "base32"},
		{Workload: "g2", Toolchain: "base", Machine: "base32"},
	}}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quota-filling submit: %d", resp.StatusCode)
	}
	resp.Body.Close()

	over := doReq(t, "POST", base+"/v1/batches", "tok-g", mustJSON(t, oneJob("g3")))
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("tenant 429 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(over.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	over.Body.Close()
	if !strings.Contains(e.Error, `client "greedy"`) {
		t.Fatalf("429 body %q does not name the tenant", e.Error)
	}

	// The other tenant is unaffected by greedy's backpressure.
	ok := doReq(t, "POST", base+"/v1/batches", "tok-m", mustJSON(t, oneJob("m1")))
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("modest tenant blocked by greedy's quota: %d", ok.StatusCode)
	}
	ok.Body.Close()
}

// TestServerStrictJSON: submissions with unknown fields, trailing
// garbage, or malformed bodies fail loudly with 400 and a useful
// message, on both the batch and sync endpoints.
func TestServerStrictJSON(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 1}, &stubRunner{})
	cases := []struct {
		name    string
		body    string
		wantMsg string
	}{
		{"unknown top-level field", `{"jobz": []}`, "unknown field"},
		{"typoed job field", `{"jobs": [{"workload": "w", "tool_chain": "base", "machine": "base32"}]}`, "unknown field"},
		{"trailing garbage", `{"jobs": [{"workload": "w", "toolchain": "base", "machine": "base32"}]} {"x":1}`, "trailing data"},
		{"two values", `{"jobs": [{"workload": "w", "toolchain": "base", "machine": "base32"}]}[]`, "trailing data"},
		{"not json", `hello`, "bad request body"},
		{"empty body", ``, "bad request body"},
		{"wrong type", `{"jobs": "w"}`, "bad request body"},
	}
	for _, tc := range cases {
		resp := doReq(t, "POST", base+"/v1/batches", "", []byte(tc.body))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, e.Error)
		}
		if !strings.Contains(e.Error, tc.wantMsg) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantMsg)
		}
	}
	// Sync endpoint: same strictness.
	for _, body := range []string{
		`{"workload": "w", "toolchain": "base", "machine": "base32", "max_inst": 5}`,
		`{"workload": "w", "toolchain": "base", "machine": "base32"} extra`,
	} {
		resp := doReq(t, "POST", base+"/v1/run", "", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sync body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Nothing was admitted by any of the rejects.
	m := decode[map[string]any](t, func() *http.Response {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}())
	if n := m["jobs"].(map[string]any)["submitted"].(float64); n != 0 {
		t.Fatalf("%v jobs admitted from rejected bodies", n)
	}
}

// TestServerBodyLimit: a request body over MaxBodyBytes is refused with
// 413 before it can exhaust memory.
func TestServerBodyLimit(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 1, MaxBodyBytes: 1024}, &stubRunner{})
	huge := []byte(`{"jobs": [` + strings.Repeat(`{"workload": "w", "toolchain": "base", "machine": "base32"},`, 100))
	huge = append(huge[:len(huge)-1], []byte(`]}`)...)
	if len(huge) <= 1024 {
		t.Fatalf("test body too small (%d bytes)", len(huge))
	}
	resp := doReq(t, "POST", base+"/v1/batches", "", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(e.Error, "1024") {
		t.Fatalf("413 body %q does not state the limit", e.Error)
	}
	// A normal-sized submission still works.
	ok := doReq(t, "POST", base+"/v1/batches", "", mustJSON(t, oneJob("small")))
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("small body after big one: %d", ok.StatusCode)
	}
	ok.Body.Close()
}

// TestServerMalformedIDs: ids strconv would partially parse ("jxyz",
// "j007", "j-1", "") answer 404 instead of aliasing job j0, on every
// job/batch endpoint; so do well-formed ids past the last job or batch,
// which would index beyond the server's tables.
func TestServerMalformedIDs(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 1}, &stubRunner{})
	// A real job to prove malformed ids do not alias it.
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", oneJob("real")))
	waitTerminal(t, base, sub.Batch)

	unknown := []string{"j2", "b2", "j9223372036854775807"}
	bad := append([]string{"jxyz", "j", "j0", "j007", "j-1", "j+1", "j1x", "x1", "1"}, unknown...)
	for _, id := range bad {
		resp := doReq(t, "GET", base+"/v1/jobs/"+id, "", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("job id %q: status %d, want 404", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	for _, id := range append([]string{"bxyz", "b0", "b007", "j1"}, unknown...) {
		for _, probe := range []struct{ method, path string }{
			{"GET", "/v1/batches/" + id},
			{"GET", "/v1/batches/" + id + "/report"},
			{"GET", "/v1/batches/" + id + "/events"},
			{"DELETE", "/v1/batches/" + id},
		} {
			resp := doReq(t, probe.method, base+probe.path, "", nil)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	// The well-formed ids still resolve.
	resp := doReq(t, "GET", base+"/v1/jobs/"+sub.Jobs[0], "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid job id: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerCancelTerminalBatch: cancelling a batch whose jobs already
// finished is a no-op — states stay terminal, nothing is re-cancelled.
func TestServerCancelTerminalBatch(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{Workers: 1}, &stubRunner{})
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "done1", Toolchain: "base", Machine: "base32"},
		{Workload: "fail-x", Toolchain: "base", Machine: "base32"},
	}}))
	waitTerminal(t, base, sub.Batch)

	resp := doReq(t, "DELETE", base+"/v1/batches/"+sub.Batch, "", nil)
	st := decode[map[string]any](t, resp)
	if st["cancelling"].(float64) != 0 {
		t.Fatalf("terminal batch cancel reported %v in-progress cancellations", st["cancelling"])
	}
	b := getBatch(t, base, sub.Batch)
	if b["done"].(float64) != 1 || b["failed"].(float64) != 1 || b["cancelled"].(float64) != 0 {
		t.Fatalf("terminal states disturbed by cancel: %+v", b)
	}
	// And cancelling twice more stays harmless.
	for i := 0; i < 2; i++ {
		resp := doReq(t, "DELETE", base+"/v1/batches/"+sub.Batch, "", nil)
		resp.Body.Close()
	}
}

// TestServerDrainRacingSubmits: submissions racing a drain are either
// fully admitted (and then run to completion) or rejected with 503 —
// never half-admitted, never dropped. The accounting identity
// submitted == completed+failed+cancelled holds after the drain.
func TestServerDrainRacingSubmits(t *testing.T) {
	r := &stubRunner{}
	s, base := newTestServer(t, ServerConfig{Workers: 2, QueueDepth: 256}, r)

	const submitters = 4
	var accepted atomic.Int64
	var rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				resp := postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
					{Workload: fmt.Sprintf("w%d-%d", n, k), Toolchain: "base", Machine: "base32"},
					{Workload: fmt.Sprintf("x%d-%d", n, k), Toolchain: "base", Machine: "base32"},
				}})
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(2)
				case http.StatusServiceUnavailable:
					rejected.Add(2)
					resp.Body.Close()
					return // draining: stay stopped
				case http.StatusTooManyRequests:
					// backpressure; retry
				default:
					t.Errorf("submit status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let the submitters build load
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.Submitted != uint64(accepted.Load()) {
		t.Fatalf("server admitted %d jobs, clients saw %d accepted", st.Submitted, accepted.Load())
	}
	if got := st.Completed + st.Failed + st.Cancelled; got != st.Submitted {
		t.Fatalf("drain dropped jobs: submitted=%d terminal=%d (%+v)", st.Submitted, got, st)
	}
	if st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("graceful drain cancelled or failed jobs: %+v", st)
	}
	if accepted.Load() == 0 {
		t.Fatal("race window admitted nothing; test proved nothing")
	}
}

// TestServerWeightedFairnessUnderContention: two backlogged tenants on
// one worker are served interleaved according to their weights; neither
// starves.
func TestServerWeightedFairnessUnderContention(t *testing.T) {
	r := &stubRunner{block: make(chan struct{}), started: make(chan string, 64)}
	_, base := newTestServer(t, ServerConfig{
		Workers: 1, QueueDepth: 64,
		Clients: []TenantConfig{
			{Name: "a", Token: "tok-a", MaxInFlight: 1},
			{Name: "b", Token: "tok-b", MaxInFlight: 1},
		},
	}, r)

	// First job occupies the worker so both backlogs build while blocked.
	resp := doReq(t, "POST", base+"/v1/batches", "tok-a", mustJSON(t, oneJob("a-0")))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-r.started
	var specs []JobSpec
	for i := 1; i <= 8; i++ {
		specs = append(specs, JobSpec{Workload: fmt.Sprintf("a-%d", i), Toolchain: "base", Machine: "base32"})
	}
	resp = doReq(t, "POST", base+"/v1/batches", "tok-a", mustJSON(t, submitRequest{Jobs: specs}))
	resp.Body.Close()
	specs = nil
	for i := 1; i <= 8; i++ {
		specs = append(specs, JobSpec{Workload: fmt.Sprintf("b-%d", i), Toolchain: "base", Machine: "base32"})
	}
	resp = doReq(t, "POST", base+"/v1/batches", "tok-b", mustJSON(t, submitRequest{Jobs: specs}))
	resp.Body.Close()

	close(r.block) // release the floodgates
	var order []string
	for i := 0; i < 16; i++ {
		select {
		case w := <-r.started:
			if w != "a-0" {
				order = append(order, w[:1])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d jobs started", len(order))
		}
	}
	counts := map[string]int{}
	firstHalf := map[string]int{}
	for i, p := range order {
		counts[p]++
		if i < 8 {
			firstHalf[p]++
		}
	}
	// Equal weights: both tenants get service early, not a-then-b.
	if firstHalf["a"] < 3 || firstHalf["b"] < 3 {
		t.Fatalf("first 8 slots split %v; a tenant was starved (order %v)", firstHalf, order)
	}
}

// TestServerAccessEvents: the access log sees the full lifecycle —
// request, admit, complete with latencies — plus rejects for auth and
// quota refusals.
func TestServerAccessEvents(t *testing.T) {
	col := &obs.AccessCollector{}
	r := &stubRunner{}
	_, base := newTestServer(t, ServerConfig{
		Workers: 1, AccessLog: col,
		Clients: []TenantConfig{{Name: "alice", Token: "tok-a", MaxQueued: 4}},
	}, r)

	// 401 reject.
	resp := doReq(t, "POST", base+"/v1/batches", "", mustJSON(t, oneJob("w")))
	resp.Body.Close()
	// Admitted batch.
	resp = doReq(t, "POST", base+"/v1/batches", "tok-a", mustJSON(t, submitRequest{Jobs: []JobSpec{
		{Workload: "ok", Toolchain: "base", Machine: "base32"},
		{Workload: "fail-z", Toolchain: "base", Machine: "base32"},
	}}))
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Poll with the token.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := doReq(t, "GET", base+"/v1/batches/"+sub.Batch, "tok-a", nil)
		b := decode[map[string]any](t, resp)
		if b["terminal"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Over-quota reject.
	resp = doReq(t, "POST", base+"/v1/batches", "tok-a", mustJSON(t, submitRequest{Jobs: []JobSpec{
		{Workload: "q1", Toolchain: "base", Machine: "base32"},
		{Workload: "q2", Toolchain: "base", Machine: "base32"},
		{Workload: "q3", Toolchain: "base", Machine: "base32"},
		{Workload: "q4", Toolchain: "base", Machine: "base32"},
		{Workload: "q5", Toolchain: "base", Machine: "base32"},
	}}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota probe: %d", resp.StatusCode)
	}
	resp.Body.Close()

	events := col.Events()
	var rejects, admits, completes, requests int
	for _, e := range events {
		switch e.Event {
		case obs.AccessReject:
			rejects++
			if e.Status == http.StatusUnauthorized && e.Client != "" {
				t.Fatalf("auth reject attributed to a client: %+v", e)
			}
			if e.Status == http.StatusTooManyRequests && e.Client != "alice" {
				t.Fatalf("quota reject not attributed: %+v", e)
			}
			if e.Reason == "" {
				t.Fatalf("reject without reason: %+v", e)
			}
		case obs.AccessAdmit:
			admits++
			if e.Client != "alice" || e.Batch != sub.Batch || e.Jobs != 2 {
				t.Fatalf("admit event %+v", e)
			}
		case obs.AccessComplete:
			completes++
			if e.Client != "alice" || e.Job == "" || !terminal(e.State) {
				t.Fatalf("complete event %+v", e)
			}
			if e.State == StateDone && e.RunMS < 0 {
				t.Fatalf("negative run latency: %+v", e)
			}
		case obs.AccessRequest:
			requests++
			if e.Method == "" || e.Path == "" || e.Status == 0 {
				t.Fatalf("request event %+v", e)
			}
		}
	}
	if rejects != 2 || admits != 1 || completes != 2 {
		t.Fatalf("event counts rejects=%d admits=%d completes=%d (want 2/1/2): %+v", rejects, admits, completes, events)
	}
	if requests < 3 {
		t.Fatalf("only %d request events", requests)
	}
}

// TestServerPerClientMetrics: /metrics exposes per-tenant scheduling and
// quota state.
func TestServerPerClientMetrics(t *testing.T) {
	_, base := newTestServer(t, ServerConfig{
		Workers: 1,
		Clients: []TenantConfig{
			{Name: "alice", Token: "tok-a", Weight: 2},
			{Name: "bob", Token: "tok-b"},
		},
	}, &stubRunner{})
	resp := doReq(t, "POST", base+"/v1/batches", "tok-a", mustJSON(t, oneJob("w1")))
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r2 := doReq(t, "GET", base+"/v1/batches/"+sub.Batch, "tok-a", nil)
		b := decode[map[string]any](t, r2)
		if b["terminal"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[map[string]any](t, mresp)
	clients, ok := m["clients"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no clients block: %+v", m)
	}
	alice := clients["alice"].(map[string]any)
	if alice["weight"].(float64) != 2 || alice["admitted"].(float64) != 1 || alice["completed"].(float64) != 1 {
		t.Fatalf("alice metrics %+v", alice)
	}
	bob := clients["bob"].(map[string]any)
	if bob["admitted"].(float64) != 0 {
		t.Fatalf("bob metrics %+v", bob)
	}
	if m["auth_required"] != true {
		t.Fatalf("auth_required %v", m["auth_required"])
	}
	// Job views carry the client and latency fields.
	jresp := doReq(t, "GET", base+"/v1/jobs/"+sub.Jobs[0], "tok-b", nil)
	jv := decode[jobView](t, jresp)
	if jv.Client != "alice" || jv.State != StateDone {
		t.Fatalf("job view %+v", jv)
	}
}

// sseEvent is one parsed server-sent event (name + data line).
type sseEvent struct {
	name string
	data string
}

// readSSE subscribes to a batch's progress stream and reads events until
// the server ends the stream (after the terminal batch event).
func readSSE(t *testing.T, base, batch string) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/batches/" + batch + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestServerProgressStream: the SSE endpoint announces the schema in a
// hello event, streams every per-job transition live with densely
// numbered Seq and coherent counts, and terminates the stream with the
// batch summary exactly when the last job lands.
func TestServerProgressStream(t *testing.T) {
	runner := &stubRunner{block: make(chan struct{})}
	_, base := newTestServer(t, ServerConfig{Workers: 1}, runner)
	sub := decode[submitResponse](t, postJSON(t, base+"/v1/batches", submitRequest{Jobs: []JobSpec{
		{Workload: "alpha", Toolchain: "base", Machine: "base32"},
		{Workload: "fail-beta", Toolchain: "base", Machine: "base32"},
	}}))

	// Subscribe while the first job is still blocked, then release both:
	// the subscriber sees queued history replayed and the rest live.
	done := make(chan []sseEvent)
	go func() { done <- readSSE(t, base, sub.Batch) }()
	time.Sleep(50 * time.Millisecond)
	close(runner.block)
	var events []sseEvent
	select {
	case events = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("progress stream did not terminate after the batch finished")
	}

	if len(events) == 0 || events[0].name != "hello" {
		t.Fatalf("stream did not open with hello: %+v", events)
	}
	if !strings.Contains(events[0].data, obs.ProgressEventSchema) {
		t.Fatalf("hello does not announce the schema: %s", events[0].data)
	}
	var progress []obs.ProgressEvent
	for _, e := range events[1:] {
		if e.name != "progress" {
			t.Fatalf("unexpected event %q", e.name)
		}
		var pe obs.ProgressEvent
		if err := json.Unmarshal([]byte(e.data), &pe); err != nil {
			t.Fatalf("bad progress payload %s: %v", e.data, err)
		}
		progress = append(progress, pe)
	}
	kinds := make(map[string]int)
	for i, pe := range progress {
		if pe.Seq != i {
			t.Fatalf("event %d has seq %d (want dense numbering)", i, pe.Seq)
		}
		if pe.Batch != sub.Batch {
			t.Fatalf("event %d batch %q", i, pe.Batch)
		}
		if got := pe.Counts.Queued + pe.Counts.Running + pe.Counts.Done + pe.Counts.Failed + pe.Counts.Cancelled; got != pe.Counts.Total {
			t.Fatalf("event %d counts do not sum to total: %+v", i, pe.Counts)
		}
		kinds[pe.Event]++
	}
	want := map[string]int{
		obs.ProgressQueued:  2,
		obs.ProgressRunning: 2,
		obs.ProgressDone:    1,
		obs.ProgressFailed:  1,
		obs.ProgressBatch:   1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("saw %d %q events, want %d (all: %v)", kinds[k], k, n, kinds)
		}
	}
	last := progress[len(progress)-1]
	if last.Event != obs.ProgressBatch || !last.Counts.Terminal() || last.Counts.Done != 1 || last.Counts.Failed != 1 {
		t.Fatalf("stream did not end with the terminal batch summary: %+v", last)
	}
	for _, pe := range progress {
		if pe.Event == obs.ProgressFailed && !strings.Contains(pe.Error, "simulated failure") {
			t.Fatalf("failed event lost its error: %+v", pe)
		}
	}

	// A late subscriber replays the identical history and the stream ends
	// immediately — the log is append-only and complete after terminal.
	replay := readSSE(t, base, sub.Batch)
	if len(replay) != len(events) {
		t.Fatalf("late replay has %d events, live stream had %d", len(replay), len(events))
	}

	// Unknown and malformed batch ids 404.
	for _, id := range []string{"b999999", "nonsense"} {
		resp, err := http.Get(base + "/v1/batches/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("events for %q returned %d, want 404", id, resp.StatusCode)
		}
	}
}
