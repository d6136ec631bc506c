package simsvc

import "sync"

// flight deduplicates concurrent function calls by key: the first caller
// for a key (the leader) runs fn; callers that arrive while the leader is
// in flight block and share its result instead of repeating the work. It
// is a minimal in-process singleflight, and the Runner is its one user:
// identical runs racing in a daemon's worker pool, a coordinator's, or an
// experiment grid's all meet in Runner.run.
//
// Keys are forgotten as soon as the leader finishes, so flight is purely
// a concurrency deduplicator — memoization stays the caller's job (and a
// failed leader does not poison later attempts).
type flight struct {
	mu sync.Mutex
	m  map[string]*flightCall
	// shared counts the callers that joined a leader, as they join.
	shared int

	// testHookFollower, when set, runs after a caller has been committed
	// as a follower but before it blocks on the leader. Tests use it to
	// sequence leader/follower interleavings deterministically.
	testHookFollower func(key string)
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Do runs fn under key, returning its result. shared is true when this
// caller joined an in-flight leader instead of running fn itself. A
// follower observes the leader's result even if its own circumstances
// (e.g. its context) differ; callers that need per-caller cancellation
// of shared work should check their own context after Do returns.
func (f *flight) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]*flightCall)
	}
	if c, ok := f.m[key]; ok {
		f.shared++
		hook := f.testHookFollower
		f.mu.Unlock()
		if hook != nil {
			hook(key)
		}
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()

	// Forget the key and release followers even if fn panics, so a
	// panicking leader cannot strand waiters.
	defer func() {
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}

// joined reports how many callers have joined a leader.
func (f *flight) joined() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shared
}
