package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// env is a workload's prepared state.
type env interface {
	// exec runs one planned operation and returns its latency and an
	// error when it failed or its output did not match the golden. Golden
	// checks run after the clock stops.
	exec(i int, op planOp, tr *tracer) (time.Duration, error)
	close()
}

// setupEnv prepares the environment the plan's operations run in.
// Setup is timed and repeated, so it only prepares: it never runs an
// operation.
func setupEnv(name string, plan []planOp, g *goldens, dir string) (env, error) {
	switch name {
	case "sim":
		return newSimEnv(plan, g)
	case "regen":
		return newRegenEnv(plan, g), nil
	case "service":
		return startService(dir, g)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func resolve(m string) (pipeline.Config, error) {
	return experiments.MachineConfig(experiments.Machine(m))
}

// sim: core.Run of pre-built programs on named machines.

type simEnv struct {
	g     *goldens
	progs map[string]*prog.Program
	works map[string]workload.Workload
	cfgs  map[string]pipeline.Config
}

func newSimEnv(plan []planOp, g *goldens) (*simEnv, error) {
	e := &simEnv{g: g, progs: map[string]*prog.Program{}, works: map[string]workload.Workload{}, cfgs: map[string]pipeline.Config{}}
	for _, op := range plan {
		if _, ok := e.progs[op.Prog]; !ok {
			w, err := workload.ByName(op.Prog)
			if err != nil {
				return nil, err
			}
			p, err := workload.Build(w, toolchain(op.TC))
			if err != nil {
				return nil, err
			}
			e.progs[op.Prog], e.works[op.Prog] = p, w
		}
		if _, ok := e.cfgs[op.Mach]; !ok {
			cfg, err := resolve(op.Mach)
			if err != nil {
				return nil, err
			}
			e.cfgs[op.Mach] = cfg
		}
	}
	return e, nil
}

func (e *simEnv) exec(i int, op planOp, tr *tracer) (time.Duration, error) {
	p, cfg := e.progs[op.Prog], e.cfgs[op.Mach]
	var res core.Result
	var err error
	t0 := time.Now()
	root := tr.begin("op.sim", 0, i)
	tr.call("core.Run", root, i, func() { res, err = core.Run(p, cfg, 0) })
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w := e.works[op.Prog]
	if res.Output != w.Expected {
		return d, fmt.Errorf("%s: wrong program output", op.Kind)
	}
	sum, err := recordDigest(res.Stats.Record(w.Name, w.Class.String(), op.TC, op.Mach))
	if err != nil {
		return d, err
	}
	return d, check(e.g.Records, op.Kind, sum)
}

func (e *simEnv) close() {}

// regen: a cold CompareLTB on a fresh suite with no disk cache or deps log.

// regenEnv holds one fresh suite per planned regeneration. Constructing
// the suites is the workload's set-up; a suite stays cold until its
// operation runs, and is dropped after it.
type regenEnv struct {
	g      *goldens
	suites []*experiments.Suite
}

func newRegenEnv(plan []planOp, g *goldens) *regenEnv {
	e := &regenEnv{g: g, suites: make([]*experiments.Suite, len(plan))}
	for i := range e.suites {
		e.suites[i] = experiments.NewSuite()
	}
	return e
}

// regenOnce regenerates CompareLTB on s and returns its rows' digest.
func regenOnce(s *experiments.Suite, tr *tracer, parent, op int) (string, error) {
	var res *experiments.LTBResult
	var err error
	tr.call("experiments.CompareLTB", parent, op, func() { res, err = s.CompareLTB() })
	if err != nil {
		return "", err
	}
	return ltbDigest(res)
}

func (e *regenEnv) exec(i int, op planOp, tr *tracer) (time.Duration, error) {
	s := e.suites[i]
	e.suites[i] = nil
	t0 := time.Now()
	root := tr.begin("op.regen", 0, i)
	sum, err := regenOnce(s, tr, root, i)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if sum != e.g.LTB.SHA256 {
		return d, fmt.Errorf("ltb rows: digest %s differs from golden", sum[:12])
	}
	return d, nil
}

func (e *regenEnv) close() {}

// service: an in-process simsvc.Server behind a loopback listener, driven
// over one connection by simsvc.Client.RunSync.

// cacheBytes bounds the service's disk cache: room for the 12 pinned hot
// records (about 2 KB each) and about a dozen writes, so writes soon
// evict by LRU.
const cacheBytes = 48 << 10

type serviceEnv struct {
	g      *goldens
	dir    string
	cache  *simsvc.DiskCache
	runner *simsvc.Runner
	srv    *simsvc.Server
	hs     *http.Server
	served chan error
	tport  *http.Transport
	client *simsvc.Client
}

func startService(root string, g *goldens) (*serviceEnv, error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{g: g, dir: dir}
	if e.cache, err = simsvc.OpenDiskCache(dir, cacheBytes); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.runner = &simsvc.Runner{Resolve: resolve, Cache: e.cache}
	// Pinned hot keys are never evicted, so whether a read hits depends
	// only on whether its spec was touched before.
	for _, h := range hotSpecs() {
		key, err := e.runner.Key(jobSpec(h))
		if err == nil {
			err = e.cache.Pin(key)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	if e.srv, err = simsvc.NewServer(simsvc.ServerConfig{Workers: 2}, e.runner); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.tport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	e.client = &simsvc.Client{Base: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: e.tport}}
	return e, nil
}

func jobSpec(op planOp) simsvc.JobSpec {
	return simsvc.JobSpec{Workload: op.Prog, Toolchain: op.TC, Machine: op.Mach, MaxInsts: op.Budget}
}

func (e *serviceEnv) exec(i int, op planOp, tr *tracer) (time.Duration, error) {
	var rec obs.RunRecord
	var hit bool
	var err error
	t0 := time.Now()
	root := tr.begin("op.service", 0, i)
	tr.call("simsvc.Client.RunSync", root, i, func() {
		rec, hit, err = e.client.RunSync(context.Background(), jobSpec(op))
	})
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if hit != op.Hit {
		return d, fmt.Errorf("%s: cache_hit %v, want %v", op.Kind, hit, op.Hit)
	}
	sum, err := recordDigest(rec)
	if err != nil {
		return d, err
	}
	return d, check(e.g.Records, recordKey(op.Prog, op.TC, op.Mach), sum)
}

// close stops the listener, waits for the server's goroutines, and
// removes the cache directory.
func (e *serviceEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain(ctx)
	e.tport.CloseIdleConnections()
	os.RemoveAll(e.dir)
}
