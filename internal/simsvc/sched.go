package simsvc

import (
	"fmt"
	"sort"
	"sync"
)

// TenantConfig declares one authenticated client of the service: its
// identity, its bearer token, and its share of the machine.
type TenantConfig struct {
	// Name identifies the client in job views, metrics, and access logs.
	Name string
	// Token is the bearer token presented in the Authorization header.
	// Tokens must be unique across clients.
	Token string
	// Weight is the client's relative share of worker time under
	// contention (0 = 1). A weight-2 client is scheduled twice as often
	// as a weight-1 client while both have work queued.
	Weight int
	// MaxQueued caps the client's queued jobs (0 = server default).
	MaxQueued int
	// MaxInFlight caps the client's concurrently running jobs, batch
	// workers and synchronous runs combined (0 = server default).
	MaxInFlight int
}

// tenant is the scheduler-side state of one client. All fields are
// guarded by the Scheduler's (the server's) mutex.
type tenant struct {
	name        string
	token       string
	weight      int
	maxQueued   int
	maxInFlight int

	queue   []*jobEntry
	running int    // batch jobs in Run plus active synchronous runs
	pass    uint64 // stride-scheduling virtual time

	admitted  uint64 // jobs accepted into the queue
	rejected  uint64 // submissions refused (quota, overload, bad input)
	completed uint64 // batch jobs that reached a terminal state
	cacheHits uint64 // completions served from the persistent cache
}

// strideScale is the stride numerator: a tenant's pass advances by
// strideScale/weight per scheduled job, so higher weights advance slower
// and are picked more often.
const strideScale = 1 << 16

// maxWeight bounds configured weights so strides stay meaningful.
const maxWeight = strideScale

func (t *tenant) stride() uint64 { return strideScale / uint64(t.weight) }

// Scheduler replaces the service's former single global FIFO with
// per-tenant queues served in weighted-fair order (stride scheduling):
// among tenants that have queued work and a free in-flight slot, the one
// with the least virtual time runs next, and its virtual time advances
// inversely to its weight. Admission enforces a global queue bound plus
// per-tenant queued caps, so one tenant can neither starve others of
// worker time nor squat the whole queue.
//
// The Scheduler does not lock itself: every method requires the mutex
// passed to newScheduler (the server's own), which also backs the
// condition variable workers block on. Keeping one lock makes job-state
// transitions and queue membership a single atomic story.
type Scheduler struct {
	cond *sync.Cond

	byToken map[string]*tenant
	byName  map[string]*tenant
	order   []*tenant // name-sorted, for deterministic scans and metrics

	totalQueued int
	maxTotal    int
	draining    bool
	vtime       uint64 // pass of the most recently scheduled tenant
}

// newScheduler builds the tenant table, as a reload onto an empty one
// would. mu is the server mutex guarding every scheduler call.
// Configuration errors (duplicate names or tokens, absurd weights) are
// reported rather than silently normalized.
func newScheduler(mu *sync.Mutex, maxTotal int, clients []TenantConfig, defQueued, defInFlight int) (*Scheduler, error) {
	sc := &Scheduler{cond: sync.NewCond(mu), maxTotal: maxTotal}
	if err := sc.reloadLocked(clients, defQueued, defInFlight); err != nil {
		return nil, err
	}
	return sc, nil
}

// quotaError is an admission refusal carrying a Retry-After hint.
type quotaError struct {
	msg   string
	retry int // seconds
}

func (e *quotaError) Error() string { return e.msg }

// admitLocked checks whether tenant t may enqueue n more jobs. It
// reserves nothing; the caller pushes under the same critical section.
//
// Each rejection's Retry-After hint is derived from the queue depth of
// the constraint that rejected: a tenant over its own quota waits for its
// own backlog to drain, not the whole machine's. (It used to be computed
// from the global backlog for both constraints, so a tenant blocked only
// by its own small queue got a wildly pessimistic hint whenever another
// tenant's backlog was deep.)
func (sc *Scheduler) admitLocked(t *tenant, n int, workers int) *quotaError {
	if free := t.maxQueued - len(t.queue); n > free {
		return &quotaError{
			msg: fmt.Sprintf("client %q queue quota exceeded (%d queued, %d free, batch of %d)",
				t.name, len(t.queue), free, n),
			retry: retryEstimate(len(t.queue), min(workers, t.maxInFlight)),
		}
	}
	if free := sc.maxTotal - sc.totalQueued; n > free {
		return &quotaError{
			msg: fmt.Sprintf("job queue full (%d queued, %d free, batch of %d)",
				sc.totalQueued, free, n),
			retry: retryEstimate(sc.totalQueued, workers),
		}
	}
	return nil
}

// retryEstimate estimates seconds until queued jobs ahead of the caller
// drain, assuming roughly one job per second per drain slot. queued is
// the rejecting constraint's own backlog; slots is its drain parallelism
// (the worker pool for the global bound, the tenant's usable in-flight
// share for a per-tenant bound).
func retryEstimate(queued, slots int) int {
	if slots <= 0 {
		slots = 1
	}
	return queued/slots + 1
}

// pushLocked appends jobs to t's queue and wakes waiting workers. A
// tenant re-entering the runnable set joins at the current virtual time
// so idle periods bank no credit.
func (sc *Scheduler) pushLocked(t *tenant, jobs []*jobEntry) {
	if len(t.queue) == 0 && t.pass < sc.vtime {
		t.pass = sc.vtime
	}
	t.queue = append(t.queue, jobs...)
	sc.totalQueued += len(jobs)
	t.admitted += uint64(len(jobs))
	sc.cond.Broadcast()
}

// nextLocked blocks until a job is runnable and returns it with its
// tenant's in-flight count already incremented (pair with doneLocked),
// or returns nil when the scheduler is draining and the queues are
// empty. Jobs cancelled while queued are discarded here without
// consuming a scheduling slot.
func (sc *Scheduler) nextLocked() *jobEntry {
	for {
		var best *tenant
		for _, t := range sc.order {
			for len(t.queue) > 0 && t.queue[0].state != StateQueued {
				t.queue[0] = nil
				t.queue = t.queue[1:]
				sc.totalQueued--
			}
			if len(t.queue) == 0 || t.running >= t.maxInFlight {
				continue
			}
			if best == nil || t.pass < best.pass {
				best = t
			}
		}
		if best != nil {
			j := best.queue[0]
			best.queue[0] = nil
			best.queue = best.queue[1:]
			sc.totalQueued--
			best.running++
			if best.pass > sc.vtime {
				sc.vtime = best.pass
			}
			best.pass += best.stride()
			return j
		}
		if sc.draining && sc.totalQueued == 0 {
			return nil
		}
		sc.cond.Wait()
	}
}

// doneLocked releases tenant t's in-flight slot (batch job finished or
// synchronous run returned) and wakes workers that may now be eligible.
func (sc *Scheduler) doneLocked(t *tenant) {
	t.running--
	sc.cond.Broadcast()
}

// acquireSyncLocked claims an in-flight slot for a synchronous run, or
// refuses with a quota error when the tenant is at its cap.
func (sc *Scheduler) acquireSyncLocked(t *tenant) *quotaError {
	if t.running >= t.maxInFlight {
		return &quotaError{
			msg:   fmt.Sprintf("client %q at its in-flight cap (%d running)", t.name, t.running),
			retry: 1,
		}
	}
	t.running++
	return nil
}

// purgeLocked drops queued entries that are no longer in StateQueued
// (batch cancellation), freeing their queue slots immediately.
func (sc *Scheduler) purgeLocked() {
	for _, t := range sc.order {
		kept := t.queue[:0]
		for _, j := range t.queue {
			if j.state == StateQueued {
				kept = append(kept, j)
			} else {
				sc.totalQueued--
			}
		}
		for i := len(kept); i < len(t.queue); i++ {
			t.queue[i] = nil
		}
		t.queue = kept
	}
	sc.cond.Broadcast()
}

// drainLocked stops nextLocked from ever blocking again once the queues
// empty; workers already waiting are woken to observe the drain.
func (sc *Scheduler) drainLocked() {
	sc.draining = true
	sc.cond.Broadcast()
}

// validateClients checks a tenant-configuration set for the errors
// newScheduler and reloadLocked report: empty names or tokens,
// out-of-range weights, duplicate names or tokens.
func validateClients(clients []TenantConfig) error {
	names := make(map[string]bool, len(clients))
	tokens := make(map[string]bool, len(clients))
	for _, c := range clients {
		if c.Name == "" {
			return fmt.Errorf("simsvc: client with empty name")
		}
		if c.Token == "" {
			return fmt.Errorf("simsvc: client %q has an empty token", c.Name)
		}
		if c.Weight < 0 || c.Weight > maxWeight {
			return fmt.Errorf("simsvc: client %q weight %d out of range [0,%d]", c.Name, c.Weight, maxWeight)
		}
		if names[c.Name] {
			return fmt.Errorf("simsvc: duplicate client name %q", c.Name)
		}
		if tokens[c.Token] {
			return fmt.Errorf("simsvc: duplicate client token (client %q)", c.Name)
		}
		names[c.Name] = true
		tokens[c.Token] = true
	}
	return nil
}

// reloadLocked atomically replaces the tenant table with a new client
// set, without disturbing scheduling state: surviving tenants (matched by
// name) keep their queues, in-flight counts, counters, and fairness pass
// — only their token, weight, and quota caps change — and new tenants
// join at the current virtual time, exactly as a freshly-submitting
// tenant would. Tenants absent from the new set are removed only if they
// are idle; a reload that would orphan a tenant with queued or in-flight
// work is rejected wholesale, leaving the old table in place.
func (sc *Scheduler) reloadLocked(clients []TenantConfig, defQueued, defInFlight int) error {
	if len(clients) == 0 {
		return fmt.Errorf("simsvc: reload with no clients would lock every caller out")
	}
	if err := validateClients(clients); err != nil {
		return err
	}
	keep := make(map[string]bool, len(clients))
	for _, c := range clients {
		keep[c.Name] = true
	}
	for _, t := range sc.order {
		if !keep[t.name] && (len(t.queue) > 0 || t.running > 0) {
			return fmt.Errorf("simsvc: reload would orphan client %q (%d queued, %d in flight)",
				t.name, len(t.queue), t.running)
		}
	}

	byName := make(map[string]*tenant, len(clients))
	byToken := make(map[string]*tenant, len(clients))
	order := make([]*tenant, 0, len(clients))
	for _, c := range clients {
		t, ok := sc.byName[c.Name]
		if !ok {
			t = &tenant{name: c.Name, pass: sc.vtime}
		}
		t.token = c.Token
		t.weight = max(c.Weight, 1)
		t.maxQueued = c.MaxQueued
		t.maxInFlight = c.MaxInFlight
		if t.maxQueued <= 0 {
			t.maxQueued = defQueued
		}
		if t.maxInFlight <= 0 {
			t.maxInFlight = defInFlight
		}
		byName[t.name] = t
		byToken[t.token] = t
		order = append(order, t)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].name < order[j].name })
	sc.byName = byName
	sc.byToken = byToken
	sc.order = order
	// Quota caps may have loosened: wake workers to re-evaluate eligibility.
	sc.cond.Broadcast()
	return nil
}

// tenantViewLocked renders one tenant's metrics snapshot.
func (t *tenant) viewLocked() map[string]any {
	return map[string]any{
		"weight":        t.weight,
		"max_queued":    t.maxQueued,
		"max_in_flight": t.maxInFlight,
		"queued":        len(t.queue),
		"running":       t.running,
		"admitted":      t.admitted,
		"rejected":      t.rejected,
		"completed":     t.completed,
		"cache_hits":    t.cacheHits,
	}
}
