package simsvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightDedup: callers that arrive while a leader is in flight run
// fn zero times themselves and share the leader's result. The follower
// hook sequences the interleaving so the test is deterministic: the
// leader is only released once every follower is committed to waiting.
func TestFlightDedup(t *testing.T) {
	var f flight
	var calls atomic.Int64
	gate := make(chan struct{})
	release := make(chan struct{})

	const followers = 7
	joined := make(chan string, followers)
	f.testHookFollower = func(key string) { joined <- key }

	var wg sync.WaitGroup
	vals := make([]any, followers+1)
	shareds := make([]bool, followers+1)
	launch := func(i int) {
		defer wg.Done()
		v, shared, err := f.Do("k", func() (any, error) {
			calls.Add(1)
			close(gate) // leader is in: main goroutine may spawn followers
			<-release
			return 42, nil
		})
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		vals[i], shareds[i] = v, shared
	}

	wg.Add(1)
	go launch(0)
	<-gate // leader registered and running
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go launch(i)
	}
	for i := 0; i < followers; i++ {
		if k := <-joined; k != "k" {
			t.Fatalf("follower joined key %q", k)
		}
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %v, want 42", i, vals[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
}

// TestFlightKeysIndependent: distinct keys do not share.
func TestFlightKeysIndependent(t *testing.T) {
	var f flight
	var calls atomic.Int64
	for _, k := range []string{"a", "b"} {
		v, shared, err := f.Do(k, func() (any, error) {
			calls.Add(1)
			return k, nil
		})
		if err != nil || shared || v != k {
			t.Fatalf("Do(%q) = %v, %v, %v", k, v, shared, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
}

// TestFlightErrorNotSticky: a failed leader does not poison the key; the
// next call runs fn again.
func TestFlightErrorNotSticky(t *testing.T) {
	var f flight
	boom := errors.New("boom")
	if _, _, err := f.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v, want boom", err)
	}
	v, _, err := f.Do("k", func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %v, %v; want 7, nil", v, err)
	}
}

// TestFlightPanicReleasesFollowers: a panicking leader must not strand
// followers on the done channel.
func TestFlightPanicReleasesFollowers(t *testing.T) {
	var f flight
	gate := make(chan struct{})
	joined := make(chan struct{})
	f.testHookFollower = func(string) { close(joined) }
	go func() {
		defer func() { recover() }()
		f.Do("k", func() (any, error) {
			close(gate)
			<-joined // follower is committed to waiting on us
			panic("leader exploded")
		})
	}()
	<-gate
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Do("k", func() (any, error) { return nil, nil })
	}()
	<-done // must not hang
}
