// Command facd is the simulation daemon: it serves the repository's
// cycle-level simulator over an HTTP/JSON API so experiment drivers can
// submit batches of (workload, toolchain, machine) jobs, poll their
// status, and fetch results as canonical obs.RunRecord reports.
//
// The daemon is deterministic end to end: a batch report is byte-identical
// to what an in-process run of the same jobs would export, so results can
// be cached, diffed, and shared across machines. docs/SERVICE.md describes
// the API, the content-addressed result cache, the multi-tenant quota and
// fair-scheduling model, and the operational endpoints.
//
// Usage:
//
//	facd -addr :8080 -cache ~/.fac-cache
//	facd -addr 127.0.0.1:0 -workers 4 -job-timeout 5m
//	facd -clients alice:tokenA:2,bob:tokenB:1 -access-log access.jsonl
//	facd -coordinator http://w1:8080,http://w2:8080
//
// With -clients (or -clients-file, which additionally reloads on
// SIGHUP without dropping work), every API request (except /healthz and
// /metrics) must carry "Authorization: Bearer <token>"; tenants are
// scheduled in weighted-fair order and held to per-tenant queue and
// in-flight quotas.
//
// With -coordinator, the daemon simulates nothing itself: each job it
// cannot serve from its own -cache is dispatched to the worker daemon
// owning the job's content-addressed cache key on a consistent-hash ring,
// with failover and hedged re-dispatch around the ring when a worker dies
// or straggles. Identical concurrent jobs share one dispatch. The API
// (including batch progress streams) is identical either way, and so —
// byte for byte — are the reports.
//
// facd prints "facd listening on <addr>" once it accepts connections. On
// SIGTERM or SIGINT it stops accepting work, drains queued and running
// jobs (bounded by -drain-timeout), and exits 0 on a clean drain, printing
// its final job accounting (submitted == completed+failed+cancelled on a
// clean drain — no admitted job is ever dropped unreported).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// options gathers the daemon configuration parsed from flags.
type options struct {
	addr         string
	workers      int
	queueDepth   int
	jobTimeout   time.Duration
	cacheDir     string
	cacheMax     int64
	maxInsts     uint64
	drainTimeout time.Duration

	clients        string
	clientsFile    string
	maxQueuedPer   int
	maxInFlightPer int
	maxBodyBytes   int64
	accessLogPath  string
	warm           bool

	coordinator string
	workerToken string
	hedgeAfter  time.Duration

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.IntVar(&o.workers, "workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue", 0, "global job queue depth before submissions get 429 (0 = 64)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 0, "per-job deadline (0 = none)")
	flag.StringVar(&o.cacheDir, "cache", "", "persistent result cache directory (shared with cmd/experiments -cache)")
	flag.Int64Var(&o.cacheMax, "cache-max-bytes", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
	flag.Uint64Var(&o.maxInsts, "max-insts", simsvc.DefaultMaxInsts, "instruction budget per simulation")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 2*time.Minute, "how long to wait for in-flight jobs on shutdown")
	flag.StringVar(&o.clients, "clients", "", "authenticated tenants as name:token[:weight],... (empty = open access, one anonymous tenant)")
	flag.StringVar(&o.clientsFile, "clients-file", "", "read tenants from this file (one name:token[:weight] per line, # comments); SIGHUP reloads it without dropping work")
	flag.BoolVar(&o.warm, "warm", false, "pre-simulate and pin the standard experiment grid in the result cache before serving (requires -cache)")
	flag.StringVar(&o.coordinator, "coordinator", "", "run as fleet coordinator dispatching to these worker daemon URLs (comma-separated); no local simulation")
	flag.StringVar(&o.workerToken, "worker-token", "", "bearer token the coordinator presents to its workers")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "coordinator: launch a backup dispatch on the next shard owner after this straggler delay (0 = 30s, negative = never)")
	flag.IntVar(&o.maxQueuedPer, "max-queued-per-client", 0, "per-tenant queued-jobs quota (0 = the global -queue depth)")
	flag.IntVar(&o.maxInFlightPer, "max-inflight-per-client", 0, "per-tenant cap on concurrently running jobs, batch+sync (0 = -workers)")
	flag.Int64Var(&o.maxBodyBytes, "max-body-bytes", 0, "reject request bodies larger than this with 413 (0 = 4 MiB)")
	flag.StringVar(&o.accessLogPath, "access-log", "", "write JSONL access events (request/admit/reject/complete) to this file; \"-\" = stderr")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 10*time.Second, "close connections whose request headers take longer than this (slowloris guard)")
	flag.DurationVar(&o.readTimeout, "read-timeout", time.Minute, "close connections whose full request takes longer than this to read")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 15*time.Minute, "abort responses not fully written within this (must exceed the longest sync run; 0 = none)")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "close idle keep-alive connections after this")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "facd:", err)
		os.Exit(1)
	}
}

// parseClients parses the -clients flag: comma-separated
// name:token[:weight] entries. Weights default to 1; quota caps come
// from the shared -max-queued-per-client / -max-inflight-per-client
// flags.
func parseClients(s string) ([]simsvc.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	var out []simsvc.TenantConfig
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("bad -clients entry %q (want name:token[:weight])", entry)
		}
		c := simsvc.TenantConfig{Name: parts[0], Token: parts[1]}
		if len(parts) == 3 {
			w, err := strconv.Atoi(parts[2])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight in -clients entry %q", entry)
			}
			c.Weight = w
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-clients %q names no tenants", s)
	}
	return out, nil
}

// loadClientsFile reads a tenants file: one name:token[:weight] entry
// per line, blank lines and #-comments ignored. The same parser backs
// startup and SIGHUP reloads, so a file that boots the daemon always
// reloads cleanly too.
func loadClientsFile(path string) ([]simsvc.TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("clients file: %w", err)
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("clients file %s names no tenants", path)
	}
	return parseClients(strings.Join(entries, ","))
}

// warmSpecs enumerates the standard experiment grid — every workload
// under each (toolchain, machine) run of the paper's central figure —
// as job specs for cache warming.
func warmSpecs() []simsvc.JobSpec {
	var specs []simsvc.JobSpec
	for _, w := range workload.All() {
		for _, r := range experiments.StandardGrid() {
			specs = append(specs, simsvc.JobSpec{Workload: w.Name, Toolchain: r.Toolchain, Machine: string(r.Machine)})
		}
	}
	return specs
}

// newHTTPServer wires the connection timeouts that keep one slow or
// stalled client from holding a connection (and its goroutine) forever:
// ReadHeaderTimeout bounds the slowloris window, ReadTimeout the whole
// request read, WriteTimeout the response (it must exceed the longest
// synchronous run), and IdleTimeout reclaims parked keep-alives.
func newHTTPServer(h http.Handler, o options) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}
}

func run(o options) error {
	runner := &simsvc.Runner{
		Resolve: func(m string) (pipeline.Config, error) {
			return experiments.MachineConfig(experiments.Machine(m))
		},
		MaxInsts: o.maxInsts,
	}
	if o.cacheDir != "" {
		dc, err := simsvc.OpenDiskCache(o.cacheDir, o.cacheMax)
		if err != nil {
			return fmt.Errorf("open cache: %w", err)
		}
		runner.Cache = dc
	}

	if o.coordinator != "" {
		urls := strings.Split(o.coordinator, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		disp, err := fleet.New(fleet.Config{
			Workers:    urls,
			Token:      o.workerToken,
			HedgeAfter: o.hedgeAfter,
		})
		if err != nil {
			return err
		}
		pingCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = disp.Ping(pingCtx)
		cancel()
		if err != nil {
			return err
		}
		runner.Remote = disp
	}

	var clients []simsvc.TenantConfig
	var err error
	switch {
	case o.clientsFile != "" && o.clients != "":
		return fmt.Errorf("use -clients or -clients-file, not both")
	case o.clientsFile != "":
		clients, err = loadClientsFile(o.clientsFile)
	default:
		clients, err = parseClients(o.clients)
	}
	if err != nil {
		return err
	}
	var accessLog obs.AccessSink
	switch o.accessLogPath {
	case "":
	case "-":
		accessLog = obs.NewAccessLog(os.Stderr)
	default:
		f, err := os.OpenFile(o.accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open access log: %w", err)
		}
		defer f.Close()
		accessLog = obs.NewAccessLog(f)
	}

	svc, err := simsvc.NewServer(simsvc.ServerConfig{
		Workers:            o.workers,
		QueueDepth:         o.queueDepth,
		JobTimeout:         o.jobTimeout,
		Clients:            clients,
		DefaultMaxQueued:   o.maxQueuedPer,
		DefaultMaxInFlight: o.maxInFlightPer,
		MaxBodyBytes:       o.maxBodyBytes,
		AccessLog:          accessLog,
	}, runner)
	if err != nil {
		return err
	}

	if o.warm {
		if runner.Cache == nil {
			return fmt.Errorf("-warm requires -cache")
		}
		if o.coordinator != "" {
			return fmt.Errorf("-warm runs local simulations; a coordinator has none (warm the workers instead)")
		}
		simulated, hits, err := runner.Warm(context.Background(), warmSpecs())
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		// Parsed by scripts, like the listening line below.
		fmt.Printf("facd warmed standard grid (simulated=%d cached=%d pinned=%d)\n",
			simulated, hits, simulated+hits)
	}
	svc.Start()

	if o.clientsFile != "" {
		// Token rotation without restart: SIGHUP re-reads the tenants file
		// and swaps it in atomically. A bad file or a reload that would
		// orphan live work is rejected and the old table stays in force.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				clients, err := loadClientsFile(o.clientsFile)
				if err == nil {
					err = svc.ReloadClients(clients)
				}
				if err != nil {
					fmt.Printf("facd clients reload rejected: %v\n", err)
					continue
				}
				fmt.Printf("facd reloaded clients (%d tenants)\n", len(clients))
			}
		}()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(svc.Handler(), o)

	// Announce readiness on stdout; scripts (and the CI smoke stage) parse
	// this line to find the bound port.
	fmt.Printf("facd listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("facd draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := svc.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errCh
	st := svc.Stats()
	if drainErr != nil {
		return fmt.Errorf("drain (submitted=%d completed=%d failed=%d cancelled=%d): %w",
			st.Submitted, st.Completed, st.Failed, st.Cancelled, drainErr)
	}
	// The accounting identity on this line is the drop-free guarantee
	// cmd/facload asserts: every admitted job reached a terminal state.
	fmt.Printf("facd drained cleanly (submitted=%d completed=%d failed=%d cancelled=%d)\n",
		st.Submitted, st.Completed, st.Failed, st.Cancelled)
	return nil
}
