package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ServerConfig tunes the service.
type ServerConfig struct {
	// Workers is the simulation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the global job queue; submissions that would
	// overflow it are rejected with 429 and a Retry-After hint (0 = 64).
	QueueDepth int
	// JobTimeout is the per-job deadline (0 = none). It applies to queued
	// batch jobs and to synchronous /v1/run requests alike.
	JobTimeout time.Duration

	// Clients declares the authenticated tenants. When empty the service
	// is open: every request maps to a single anonymous tenant. When
	// non-empty, requests must present a configured bearer token and are
	// scheduled fairly by tenant weight.
	Clients []TenantConfig
	// DefaultMaxQueued is the per-tenant queued-jobs cap for clients that
	// set none (0 = QueueDepth, i.e. only the global bound applies).
	DefaultMaxQueued int
	// DefaultMaxInFlight is the per-tenant cap on concurrently running
	// jobs — batch plus synchronous — for clients that set none
	// (0 = Workers).
	DefaultMaxInFlight int
	// MaxBodyBytes bounds any request body; larger bodies are refused
	// with 413 before they can exhaust memory (0 = 4 MiB).
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives structured
	// request/admit/reject/complete events (see obs.AccessEvent).
	AccessLog obs.AccessSink
}

// Served is one job's result: its canonical record, whether a
// persistent cache served it, and the fleet worker that ran it ("" when
// the runner simulated locally or served it from its own cache).
type Served struct {
	Rec      obs.RunRecord
	CacheHit bool
	Worker   string
	// hit is the cache entry that served a hit, nil otherwise; POST
	// /v1/run writes its stored answer instead of encoding Rec.
	hit *residentEntry
}

// JobRunner executes and validates job specs. *Runner is the production
// implementation, a coordinator's included; tests substitute their own.
type JobRunner interface {
	Validate(spec JobSpec) error
	Run(ctx context.Context, spec JobSpec) (Served, error)
}

// Job states, as reported by the API. Each is also the kind of the
// progress event that announces a job's move into it.
const (
	StateQueued    = obs.ProgressQueued
	StateRunning   = obs.ProgressRunning
	StateDone      = obs.ProgressDone
	StateFailed    = obs.ProgressFailed
	StateCancelled = obs.ProgressCancelled
)

// jobEntry is the service-side state of one job. Mutable fields are
// guarded by the server mutex.
type jobEntry struct {
	id     string
	batch  *batch
	spec   JobSpec
	tenant *tenant

	state  string
	errMsg string
	out    Served // the runner's result, set once the job is done

	enqueued time.Time
	started  time.Time
	finished time.Time

	ctx    context.Context
	cancel context.CancelFunc
}

// queueWait is submission-to-start latency; for jobs cancelled while
// queued it measures submission to cancellation.
func (j *jobEntry) queueWait() time.Duration {
	if j.started.IsZero() {
		if j.finished.IsZero() {
			return 0
		}
		return j.finished.Sub(j.enqueued)
	}
	return j.started.Sub(j.enqueued)
}

// runTime is start-to-terminal latency (zero while running or never
// started).
func (j *jobEntry) runTime() time.Duration {
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Server is the simulation service: a bounded worker pool fed by
// per-tenant queues under weighted-fair scheduling, with token
// authentication, per-tenant quotas, batch bookkeeping, cancellation,
// backpressure, structured access logs, metrics, and graceful drain.
type Server struct {
	cfg    ServerConfig
	runner JobRunner

	sched        *Scheduler
	authRequired bool
	anon         *tenant
	accessLog    obs.AccessSink

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	started  bool
	jobs     []*jobEntry // job "j<n>" is jobs[n-1]
	batches  []*batch    // batch "b<n>" is batches[n-1]
	busy     int

	submitted uint64
	completed uint64
	failed    uint64
	cancelled uint64
	cacheHits uint64
	syncRuns  uint64
}

// anonTenantName identifies the single tenant of an open (no configured
// clients) server.
const anonTenantName = "anon"

// NewServer builds a server; call Start to launch its workers. It fails
// on inconsistent tenant configuration (duplicate names or tokens,
// out-of-range weights).
func NewServer(cfg ServerConfig, runner JobRunner) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultMaxQueued <= 0 {
		cfg.DefaultMaxQueued = cfg.QueueDepth
	}
	if cfg.DefaultMaxInFlight <= 0 {
		cfg.DefaultMaxInFlight = cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		runner:     runner,
		accessLog:  cfg.AccessLog,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	clients := cfg.Clients
	s.authRequired = len(clients) > 0
	if !s.authRequired {
		// Open server: one anonymous tenant holds all quota state. The
		// token is never matched because authentication is skipped.
		clients = []TenantConfig{{Name: anonTenantName, Token: "\x00anonymous"}}
	}
	sched, err := newScheduler(&s.mu, cfg.QueueDepth, clients, cfg.DefaultMaxQueued, cfg.DefaultMaxInFlight)
	if err != nil {
		cancel()
		return nil, err
	}
	s.sched = sched
	if !s.authRequired {
		s.anon = sched.order[0]
	}
	return s, nil
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// batch is one submission: its jobs in submission order and its
// append-only progress-event history (schema fac/progress/v1). counts is
// the census of the jobs' states, kept by setStateLocked. Events are
// immutable once appended, so a streaming subscriber snapshots a slice
// under the server mutex and writes it out without holding the lock.
// wake is closed and replaced on every append; subscribers select on the
// channel they last saw.
type batch struct {
	id     string
	jobs   []*jobEntry
	counts obs.ProgressCounts
	events []obs.ProgressEvent
	wake   chan struct{}
	done   bool // terminal batch summary has been emitted
}

// appendLocked stamps and stores one event, then wakes every subscriber.
// Call with the server mutex held.
func (b *batch) appendLocked(e obs.ProgressEvent) {
	e.Seq = len(b.events)
	e.Time = time.Now()
	e.Batch = b.id
	e.Counts = b.counts
	b.events = append(b.events, e)
	close(b.wake)
	b.wake = make(chan struct{})
}

// stateCount returns the census field that counts jobs in state.
func stateCount(c *obs.ProgressCounts, state string) *int {
	switch state {
	case StateQueued:
		return &c.Queued
	case StateRunning:
		return &c.Running
	case StateDone:
		return &c.Done
	case StateFailed:
		return &c.Failed
	}
	return &c.Cancelled
}

// setStateLocked sets j's state, shifts j between its batch's counts,
// and publishes the move as a progress event of that kind; the batch's
// last terminal move is followed by the single "batch" summary event.
// Only finishLocked moves a job into a terminal state. Call with the
// server mutex held.
func (j *jobEntry) setStateLocked(state string) {
	b := j.batch
	if j.state == "" { // a new job joins its batch
		b.counts.Total++
	} else {
		*stateCount(&b.counts, j.state)--
	}
	j.state = state
	*stateCount(&b.counts, state)++
	e := obs.ProgressEvent{
		Event:    state,
		Job:      j.id,
		Client:   j.tenant.name,
		Worker:   j.out.Worker,
		CacheHit: j.out.CacheHit,
		Error:    j.errMsg,
	}
	if terminal(state) {
		e.QueueWaitMS = durMS(j.queueWait())
		e.RunMS = durMS(j.runTime())
	}
	b.appendLocked(e)
	if !b.done && b.counts.Terminal() {
		b.done = true
		b.appendLocked(obs.ProgressEvent{Event: obs.ProgressBatch, Client: j.tenant.name})
	}
}

// finishLocked is a job's one terminal transition: it moves j to done,
// failed or cancelled, stamps its finish time, counts the outcome for the
// server and the tenant, and publishes it. Call with the mutex held, and
// emit the job's complete access event once the mutex is released.
func (s *Server) finishLocked(j *jobEntry, state string, err error) {
	j.finished = time.Now()
	if err != nil {
		j.errMsg = err.Error()
	}
	j.tenant.completed++
	switch state {
	case StateDone:
		s.completed++
		if j.out.CacheHit {
			s.cacheHits++
			j.tenant.cacheHits++
		}
	case StateFailed:
		s.failed++
	default:
		s.cancelled++
	}
	j.setStateLocked(state)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		j := s.sched.nextLocked()
		s.mu.Unlock()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one scheduled job, honoring cancellation that raced
// its dequeue and the per-job deadline. The job's tenant in-flight slot
// (claimed by nextLocked) is always released.
func (s *Server) runJob(j *jobEntry) {
	defer func() {
		s.mu.Lock()
		s.sched.doneLocked(j.tenant)
		s.mu.Unlock()
	}()
	s.mu.Lock()
	if j.state != StateQueued {
		s.mu.Unlock()
		return // cancelled while queued
	}
	if j.ctx.Err() != nil {
		s.finishLocked(j, StateCancelled, nil)
		s.mu.Unlock()
		s.completeEvent(j)
		return
	}
	j.started = time.Now()
	j.setStateLocked(StateRunning)
	s.busy++
	s.mu.Unlock()

	out, err := s.run(j.ctx, j.spec)

	s.mu.Lock()
	s.busy--
	switch {
	case err == nil:
		out.hit = nil // a job keeps its record, not the cache's entry
		j.out = out
		s.finishLocked(j, StateDone, nil)
	case j.ctx.Err() != nil && errors.Is(err, context.Canceled):
		// The job (or the whole server) was cancelled, not a failure of
		// the simulation itself.
		s.finishLocked(j, StateCancelled, err)
	default:
		s.finishLocked(j, StateFailed, err)
	}
	s.mu.Unlock()
	s.completeEvent(j)
}

// run executes spec under the per-job deadline, if one is configured.
// Queued jobs and synchronous runs both run through it.
func (s *Server) run(ctx context.Context, spec JobSpec) (Served, error) {
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	return s.runner.Run(ctx, spec)
}

// completeEvent emits the job's terminal access event. Call without the
// server mutex and only after the job is terminal (its fields are then
// immutable).
func (s *Server) completeEvent(j *jobEntry) {
	s.access(obs.AccessEvent{
		Event:       obs.AccessComplete,
		Client:      j.tenant.name,
		Batch:       j.batch.id,
		Job:         j.id,
		State:       j.state,
		CacheHit:    j.out.CacheHit,
		QueueWaitMS: durMS(j.queueWait()),
		RunMS:       durMS(j.runTime()),
	})
}

func (s *Server) access(e obs.AccessEvent) {
	if s.accessLog == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	s.accessLog.Access(e)
}

// DrainStats is the server's batch-job accounting snapshot. For a
// drained server, Submitted == Completed+Failed+Cancelled: every
// admitted job reached a reported terminal state, none were dropped.
type DrainStats struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
}

// Stats snapshots the job counters.
func (s *Server) Stats() DrainStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DrainStats{Submitted: s.submitted, Completed: s.completed, Failed: s.failed, Cancelled: s.cancelled}
}

// Drain stops accepting new work, lets queued and running jobs finish,
// and returns once the pool is idle. If ctx expires first, running jobs
// are cancelled and Drain waits for them to abort before returning
// ctx's error. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.drainLocked() // submissions check draining under mu, so no push can race this
	}
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// tenantCtxKey carries the authenticated tenant through a request.
type tenantCtxKey struct{}

func (s *Server) tenantFrom(r *http.Request) *tenant {
	t, _ := r.Context().Value(tenantCtxKey{}).(*tenant)
	return t
}

// authenticate resolves the request's tenant. With no configured
// clients every request maps to the anonymous tenant; otherwise the
// Authorization header must carry a configured bearer token. The token
// table is consulted under the server mutex because ReloadClients can
// swap it at any time.
func (s *Server) authenticate(r *http.Request) (*tenant, error) {
	if !s.authRequired {
		return s.anon, nil
	}
	h := r.Header.Get("Authorization")
	if h == "" {
		return nil, errors.New("missing Authorization header (want \"Bearer <token>\")")
	}
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok {
		return nil, errors.New("malformed Authorization header (want \"Bearer <token>\")")
	}
	s.mu.Lock()
	t, ok := s.sched.byToken[tok]
	s.mu.Unlock()
	if !ok {
		return nil, errors.New("unknown token")
	}
	return t, nil
}

// ReloadClients atomically replaces the tenant table (token rotation,
// weight or quota changes, tenant addition/removal) without a restart.
// Queued and in-flight jobs are untouched: tenants surviving the reload
// keep their queues, fairness passes, and counters, and a reload that
// would remove a tenant with queued or running work is rejected wholesale
// (drain or cancel that tenant's jobs first). Only servers started with
// configured clients can reload — an open server has no tenant table to
// swap.
func (s *Server) ReloadClients(clients []TenantConfig) error {
	if !s.authRequired {
		return errors.New("simsvc: cannot reload clients on an open (unauthenticated) server")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.reloadLocked(clients, s.cfg.DefaultMaxQueued, s.cfg.DefaultMaxInFlight)
}

// statusWriter captures the response status for access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the progress stream can
// push events through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the HTTP API. Every endpoint except the operational
// pair (/healthz, /metrics) authenticates the caller, bounds the request
// body, and is access-logged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("GET /v1/batches/{id}/report", s.handleBatchReport)
	mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/run", s.handleRunSync)

	ops := http.NewServeMux()
	ops.HandleFunc("GET /metrics", s.handleMetrics)
	ops.HandleFunc("GET /healthz", s.handleHealthz)

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			ops.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		client := ""
		t, err := s.authenticate(r)
		if err != nil {
			s.reject(sw, nil, http.StatusUnauthorized, "%v", err)
		} else {
			client = t.name
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
			mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t)))
		}
		s.access(obs.AccessEvent{
			Event:  obs.AccessRequest,
			Client: client,
			Method: r.Method,
			Path:   r.URL.Path,
			Status: sw.status,
		})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON writes v as every answer's body: indented JSON and a newline.
func encodeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// reject refuses a request: it writes the error response, counts the
// rejection against the tenant (when known), and emits a reject access
// event carrying the reason.
func (s *Server) reject(w http.ResponseWriter, t *tenant, status int, format string, args ...any) {
	reason := fmt.Sprintf(format, args...)
	client := ""
	if t != nil {
		client = t.name
		s.mu.Lock()
		t.rejected++
		s.mu.Unlock()
	}
	writeErr(w, status, "%s", reason)
	s.access(obs.AccessEvent{
		Event:  obs.AccessReject,
		Client: client,
		Status: status,
		Reason: reason,
	})
}

// overQuota refuses a request the scheduler turned away: 429 with the
// refusal's Retry-After hint.
func (s *Server) overQuota(w http.ResponseWriter, t *tenant, qe *quotaError) {
	w.Header().Set("Retry-After", strconv.Itoa(qe.retry))
	s.reject(w, t, http.StatusTooManyRequests, "%s", qe.msg)
}

// decodeStrict decodes exactly one JSON value from the request body:
// unknown fields are errors (client typos fail loudly instead of being
// ignored), trailing data after the first value is an error, and a body
// over the server's byte limit maps to 413 rather than a generic 400.
func decodeStrict(r *http.Request, v any) (status int, err error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return http.StatusBadRequest, fmt.Errorf("trailing data after JSON body (next token %v)", tok)
	}
	return 0, nil
}

// parseID validates an API identifier of the form <prefix><positive
// decimal>, e.g. "j12" or "b3", and returns its number n: entry n-1 of
// the server's jobs or batches. It rejects everything strconv.Atoi would
// partially accept ("", "j", "jxyz", "j+1", "j007") so malformed ids can
// never alias a real job or batch.
func parseID(prefix byte, id string) (int, bool) {
	if len(id) < 2 || id[0] != prefix {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n <= 0 || strconv.Itoa(n) != id[1:] {
		return 0, false
	}
	return n, true
}

// lookup resolves the request's {id}, kind's initial and a number n, to
// entry n-1 of *list, read under the mutex, or answers 404 and returns
// nil. kind ("job", "batch") also names the entry in the error.
func lookup[T any](s *Server, w http.ResponseWriter, r *http.Request, kind string, list *[]*T) *T {
	id := r.PathValue("id")
	n, ok := parseID(kind[0], id)
	if !ok {
		writeErr(w, http.StatusNotFound, "malformed %s id %q", kind, id)
		return nil
	}
	var e *T
	s.mu.Lock()
	if n <= len(*list) {
		e = (*list)[n-1]
	}
	s.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, "unknown %s %q", kind, id)
	}
	return e
}

// submitRequest is the body of POST /v1/batches.
type submitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// maxBatchJobs bounds one submission; larger sweeps should batch their
// batches.
const maxBatchJobs = 4096

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFrom(r)
	var req submitRequest
	if status, err := decodeStrict(r, &req); err != nil {
		s.reject(w, t, status, "%v", err)
		return
	}
	if len(req.Jobs) == 0 {
		s.reject(w, t, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		s.reject(w, t, http.StatusBadRequest, "batch has %d jobs, max %d", len(req.Jobs), maxBatchJobs)
		return
	}
	for i, spec := range req.Jobs {
		if err := s.runner.Validate(spec); err != nil {
			s.reject(w, t, http.StatusBadRequest, "job %d (%s): %v", i, spec, err)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(w, t, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.started {
		s.mu.Unlock()
		s.reject(w, t, http.StatusServiceUnavailable, "server not started")
		return
	}
	// Backpressure: reject rather than block when the tenant's queue
	// quota or the global queue cannot take the whole batch. A batch is
	// admitted entirely or not at all.
	if qe := s.sched.admitLocked(t, len(req.Jobs), s.cfg.Workers); qe != nil {
		s.mu.Unlock()
		s.overQuota(w, t, qe)
		return
	}
	now := time.Now()
	b := &batch{id: "b" + strconv.Itoa(len(s.batches)+1), wake: make(chan struct{})}
	s.batches = append(s.batches, b)
	jobIDs := make([]string, 0, len(req.Jobs))
	for _, spec := range req.Jobs {
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := &jobEntry{
			id:       "j" + strconv.Itoa(len(s.jobs)+1),
			batch:    b,
			spec:     spec,
			tenant:   t,
			enqueued: now,
			ctx:      ctx,
			cancel:   cancel,
		}
		s.jobs = append(s.jobs, j)
		b.jobs = append(b.jobs, j)
		jobIDs = append(jobIDs, j.id)
		j.setStateLocked(StateQueued)
	}
	s.submitted += uint64(len(b.jobs))
	s.sched.pushLocked(t, b.jobs)
	s.mu.Unlock()

	s.access(obs.AccessEvent{Event: obs.AccessAdmit, Client: t.name, Batch: b.id, Jobs: len(jobIDs)})
	writeJSON(w, http.StatusAccepted, map[string]any{
		"batch": b.id,
		"jobs":  jobIDs,
	})
}

// jobView is the API representation of a job.
type jobView struct {
	ID        string `json:"id"`
	Batch     string `json:"batch"`
	Client    string `json:"client"`
	Workload  string `json:"workload"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Error     string `json:"error,omitempty"`
	// QueueWaitMS and RunMS are wall-clock service latencies, reported
	// once the job has started (and finished, respectively).
	QueueWaitMS float64        `json:"queue_wait_ms,omitempty"`
	RunMS       float64        `json:"run_ms,omitempty"`
	Record      *obs.RunRecord `json:"record,omitempty"`
}

// viewLocked renders a job; includeRecord controls payload size on batch
// listings.
func (j *jobEntry) viewLocked(includeRecord bool) jobView {
	v := jobView{
		ID:          j.id,
		Batch:       j.batch.id,
		Client:      j.tenant.name,
		Workload:    j.spec.Workload,
		Toolchain:   j.spec.Toolchain,
		Machine:     j.spec.Machine,
		State:       j.state,
		CacheHit:    j.out.CacheHit,
		Worker:      j.out.Worker,
		Error:       j.errMsg,
		QueueWaitMS: durMS(j.queueWait()),
		RunMS:       durMS(j.runTime()),
	}
	if includeRecord && j.state == StateDone {
		v.Record = &j.out.Rec
	}
	return v
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	b := lookup(s, w, r, "batch", &s.batches)
	if b == nil {
		return
	}
	s.mu.Lock()
	c := b.counts
	views := make([]jobView, len(b.jobs))
	for i, j := range b.jobs {
		views[i] = j.viewLocked(false)
	}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, map[string]any{
		"batch":     b.id,
		"total":     c.Total,
		"queued":    c.Queued,
		"running":   c.Running,
		"done":      c.Done,
		"failed":    c.Failed,
		"cancelled": c.Cancelled,
		"terminal":  c.Terminal(),
		"jobs":      views,
	})
}

func (s *Server) handleBatchReport(w http.ResponseWriter, r *http.Request) {
	b := lookup(s, w, r, "batch", &s.batches)
	if b == nil {
		return
	}
	rep := obs.NewReport("facd", runtime.Version())
	s.mu.Lock()
	finished := b.counts.Terminal()
	for _, j := range b.jobs {
		if j.state == StateDone {
			rep.Add(j.out.Rec)
		}
	}
	s.mu.Unlock()
	if !finished {
		writeErr(w, http.StatusConflict, "batch %q still has unfinished jobs", b.id)
		return
	}

	data, err := rep.Encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b := lookup(s, w, r, "batch", &s.batches)
	if b == nil {
		return
	}
	n := 0
	var done []*jobEntry
	s.mu.Lock()
	for _, j := range b.jobs {
		switch j.state {
		case StateQueued:
			j.cancel()
			s.finishLocked(j, StateCancelled, nil)
			done = append(done, j)
			n++
		case StateRunning:
			j.cancel() // runJob records the terminal state when Run returns
			n++
		}
	}
	if len(done) > 0 {
		// Cancelled-while-queued jobs free their queue slots immediately.
		s.sched.purgeLocked()
	}
	s.mu.Unlock()
	for _, j := range done {
		s.completeEvent(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"batch": b.id, "cancelling": n})
}

// handleBatchEvents streams the batch's progress log as server-sent
// events (schema fac/progress/v1): the full history replays on
// subscribe, then live events follow until the batch's terminal summary,
// which ends the stream. The connection is held open by the subscriber,
// not by any worker — publishers only append under the mutex and close a
// wake channel, so a slow consumer can never stall a simulation.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b := lookup(s, w, r, "batch", &s.batches)
	if b == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The schema is announced once, in the opening hello event.
	fmt.Fprintf(w, "event: hello\ndata: {\"schema\":%q,\"batch\":%q}\n\n", obs.ProgressEventSchema, b.id)
	fl.Flush()

	idx := 0
	for {
		s.mu.Lock()
		pending := b.events[idx:] // elements are immutable once appended
		wake := b.wake
		finished := b.done
		s.mu.Unlock()
		for _, e := range pending {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data); err != nil {
				return
			}
		}
		if len(pending) > 0 {
			fl.Flush()
			idx += len(pending)
		}
		if finished && len(pending) == 0 {
			return
		}
		if finished {
			continue // drain whatever raced in, then hit the branch above
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-time.After(15 * time.Second):
			// Keepalive comment so idle streams survive intermediaries.
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := lookup(s, w, r, "job", &s.jobs)
	if j == nil {
		return
	}
	s.mu.Lock()
	v := j.viewLocked(true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleRunSync runs one job synchronously on the caller's connection:
// the request context carries client-disconnect cancellation straight
// into the pipeline's cycle loop. It bypasses the queue (no backpressure
// interplay with batches) but counts against the tenant's in-flight cap
// and shares the runner's cache and dedup.
func (s *Server) handleRunSync(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFrom(r)
	var spec JobSpec
	if status, err := decodeStrict(r, &spec); err != nil {
		s.reject(w, t, status, "%v", err)
		return
	}
	if err := s.runner.Validate(spec); err != nil {
		s.reject(w, t, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(w, t, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if qe := s.sched.acquireSyncLocked(t); qe != nil {
		s.mu.Unlock()
		s.overQuota(w, t, qe)
		return
	}
	s.syncRuns++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.sched.doneLocked(t)
		s.mu.Unlock()
	}()

	out, err := s.run(r.Context(), spec)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing to answer
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, ErrRunFailed):
			status = http.StatusUnprocessableEntity
		}
		writeErr(w, status, "%v", err)
		return
	}
	if out.CacheHit {
		s.mu.Lock()
		s.cacheHits++
		t.cacheHits++
		s.mu.Unlock()
	}
	if out.hit != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(out.hit.hitAnswer())
		return
	}
	writeJSON(w, http.StatusOK, obs.RunAnswer{CacheHit: out.CacheHit, Record: out.Rec})
}

// WorkerStatus is one fleet worker's health and dispatch census,
// surfaced in /metrics when the server's Runner executes through a fleet
// dispatcher.
// It lives in this package (not internal/fleet) so the server can name
// the interface without importing the fleet layer built on top of it.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Shard ownership: how many ring slots map to this worker is an
	// implementation detail; Dispatched counts jobs actually sent here.
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	// Stolen counts jobs this worker owned that another worker finished
	// (failover or hedged dispatch won elsewhere).
	Stolen uint64 `json:"stolen"`
	// Hedges counts backup dispatches launched here for straggling owners.
	Hedges uint64 `json:"hedges"`
}

// runSummary is one finished job's stall/latency digest in /metrics.
type runSummary struct {
	Job             string             `json:"job"`
	Client          string             `json:"client"`
	Key             string             `json:"key"` // benchmark|toolchain|machine
	CacheHit        bool               `json:"cache_hit"`
	Cycles          uint64             `json:"cycles"`
	Insts           uint64             `json:"instructions"`
	IPC             float64            `json:"ipc"`
	StallTotal      uint64             `json:"stall_cycles_total"`
	Stalls          obs.StallBreakdown `json:"stall_cycles"`
	LoadLatencyMean float64            `json:"load_latency_mean"`
	LoadLatencyMax  uint64             `json:"load_latency_max"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := map[string]any{
		"queue_depth":    s.sched.totalQueued,
		"queue_capacity": s.sched.maxTotal,
		"workers":        s.cfg.Workers,
		"workers_busy":   s.busy,
		"draining":       s.draining,
		"auth_required":  s.authRequired,
		"jobs": map[string]uint64{
			"submitted":  s.submitted,
			"completed":  s.completed,
			"failed":     s.failed,
			"cancelled":  s.cancelled,
			"cache_hits": s.cacheHits,
			"sync_runs":  s.syncRuns,
		},
	}
	clients := make(map[string]any, len(s.sched.order))
	for _, t := range s.sched.order {
		clients[t.name] = t.viewLocked()
	}
	m["clients"] = clients

	runs := []runSummary{}
	for _, j := range s.jobs {
		if j.state != StateDone {
			continue
		}
		rec := &j.out.Rec
		runs = append(runs, runSummary{
			Job:             j.id,
			Client:          j.tenant.name,
			Key:             rec.Key(),
			CacheHit:        j.out.CacheHit,
			Cycles:          rec.Cycles,
			Insts:           rec.Insts,
			IPC:             rec.IPC,
			StallTotal:      rec.StallCyclesTotal,
			Stalls:          rec.Stalls,
			LoadLatencyMean: rec.LoadLatency.Mean(),
			LoadLatencyMax:  rec.LoadLatency.Max,
		})
	}
	s.mu.Unlock()
	m["runs"] = runs

	if r, ok := s.runner.(*Runner); ok {
		if cs, attached := r.CacheStats(); attached {
			m["cache"] = cs
			m["cache_hit_rate"] = cs.HitRate()
		}
		m["dedup_shared"] = r.Counts().Shared
		if fs, ok := r.Remote.(interface{ FleetStats() []WorkerStatus }); ok {
			m["fleet"] = fs.FleetStats()
		}
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	depth := s.sched.totalQueued
	busy := s.busy
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":       state,
		"queue_depth":  depth,
		"workers_busy": busy,
	})
}
