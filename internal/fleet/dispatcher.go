package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simsvc"
)

// Config wires a Dispatcher.
type Config struct {
	// Workers are the worker daemons' base URLs (ring membership).
	Workers []string
	// Token is the bearer token the coordinator presents to workers.
	Token string
	// HedgeAfter is how long the primary attempt may run before a backup
	// dispatch is launched on the next ring owner (work-stealing for
	// stragglers). 0 = 30s; negative disables hedging.
	HedgeAfter time.Duration
}

// coolOff is how long a worker that failed a dispatch at the transport
// level is deprioritised before being tried first again.
const coolOff = 5 * time.Second

// Dispatcher is the coordinator's executor: Exec ships the job to the
// worker owning its cache key, failing over (and hedging) around the
// ring. As the Remote of the simsvc.Runner a simsvc.Server serves, it
// gives the coordinator the whole single-daemon surface — auth, quotas,
// fair scheduling, batches, progress streams, single-flight and the
// persistent cache — for free; only execution is remote.
type Dispatcher struct {
	cfg     Config
	ring    *Ring
	clients map[string]*simsvc.Client

	mu    sync.Mutex
	state map[string]*workerState
}

type workerState struct {
	downUntil  time.Time
	dispatched uint64
	completed  uint64
	failed     uint64
	stolen     uint64
	hedges     uint64
}

// New builds a dispatcher over the configured workers.
func New(cfg Config) (*Dispatcher, error) {
	ring, err := NewRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 30 * time.Second
	}
	d := &Dispatcher{
		cfg:     cfg,
		ring:    ring,
		clients: make(map[string]*simsvc.Client, len(cfg.Workers)),
		state:   make(map[string]*workerState, len(cfg.Workers)),
	}
	for _, w := range cfg.Workers {
		d.clients[w] = &simsvc.Client{Base: w, Token: cfg.Token}
		d.state[w] = &workerState{}
	}
	return d, nil
}

// Ping probes every worker's health endpoint, failing on the first
// unreachable one; the coordinator calls it at startup to fail fast on
// a misconfigured fleet.
func (d *Dispatcher) Ping(ctx context.Context) error {
	for _, w := range d.ring.Workers() {
		if err := d.clients[w].Healthz(ctx); err != nil {
			return fmt.Errorf("fleet: worker %s: %w", w, err)
		}
	}
	return nil
}

// FleetStats snapshots per-worker dispatch accounting for /metrics.
func (d *Dispatcher) FleetStats() []simsvc.WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	out := make([]simsvc.WorkerStatus, 0, len(d.clients))
	for _, w := range d.ring.Workers() {
		st := d.state[w]
		out = append(out, simsvc.WorkerStatus{
			URL:        w,
			Healthy:    !now.Before(st.downUntil),
			Dispatched: st.dispatched,
			Completed:  st.completed,
			Failed:     st.failed,
			Stolen:     st.stolen,
			Hedges:     st.hedges,
		})
	}
	return out
}

// orderOwners moves workers inside their cool-off window to the back of
// the preference list, preserving ring order within each group.
func (d *Dispatcher) orderOwners(owners []string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	up := make([]string, 0, len(owners))
	var down []string
	for _, w := range owners {
		if now.Before(d.state[w].downUntil) {
			down = append(down, w)
		} else {
			up = append(up, w)
		}
	}
	return append(up, down...)
}

func (d *Dispatcher) note(worker string, f func(*workerState)) {
	d.mu.Lock()
	f(d.state[worker])
	d.mu.Unlock()
}

// transient reports whether a dispatch error indicates the worker (or
// the path to it) is unhealthy — worth failing over — rather than a
// deterministic property of the job, which every worker would reproduce.
func transient(err error) bool {
	var se *simsvc.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure (refused, reset, EOF, ...)
}

// attempt is one in-flight dispatch's outcome; out.Worker names the
// worker it went to.
type attempt struct {
	out simsvc.Served
	err error
}

// Exec dispatches one job. Its cache key picks its owner on the ring;
// the attempt fails over to the next distinct owner on transport errors
// (the failed worker enters a cool-off), and a hedged backup dispatch is
// launched when the leader straggles past HedgeAfter. The first
// successful attempt wins and cancels the rest — safe because every
// worker computes the identical content-addressed record, so completion
// is at-most-once even when execution is not. Deterministic (semantic)
// failures return immediately without failover: every worker would fail
// the same way. The result names the worker that served it.
func (d *Dispatcher) Exec(ctx context.Context, key string, spec simsvc.JobSpec) (simsvc.Served, error) {
	owners := d.orderOwners(d.ring.Owners(key))
	primary := owners[0]

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel() // reap losing attempts once a winner returns

	resc := make(chan attempt, len(owners))
	inFlight := 0
	next := 0
	launch := func(hedge bool) {
		w := owners[next]
		next++
		inFlight++
		d.note(w, func(st *workerState) {
			st.dispatched++
			if hedge {
				st.hedges++
			}
		})
		go func() {
			rec, hit, err := d.clients[w].RunSync(runCtx, spec)
			resc <- attempt{simsvc.Served{Rec: rec, CacheHit: hit, Worker: w}, err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if d.cfg.HedgeAfter > 0 {
		t := time.NewTicker(d.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return simsvc.Served{}, ctx.Err()
		case <-hedgeC:
			if next < len(owners) {
				launch(true)
			}
		case a := <-resc:
			inFlight--
			w := a.out.Worker
			if a.err == nil {
				d.note(w, func(st *workerState) { st.completed++ })
				if w != primary {
					d.note(primary, func(st *workerState) { st.stolen++ })
				}
				return a.out, nil
			}
			if ctx.Err() != nil {
				return simsvc.Served{}, ctx.Err()
			}
			if !transient(a.err) {
				d.note(w, func(st *workerState) { st.failed++ })
				return simsvc.Served{}, a.err
			}
			lastErr = a.err
			d.note(w, func(st *workerState) {
				st.failed++
				st.downUntil = time.Now().Add(coolOff)
			})
			if next < len(owners) {
				launch(false)
			} else if inFlight == 0 {
				return simsvc.Served{}, fmt.Errorf("fleet: all %d workers failed: %w", len(owners), lastErr)
			}
		}
	}
}
