package cache

import (
	"math/rand"

	"repro/internal/obs"
	"testing"
)

func dm16k(missLat, mshrs int) *Cache {
	return New(Config{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: missLat, MSHRs: mshrs})
}

func TestValidate(t *testing.T) {
	good := Config{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("good config invalid: %v", err)
	}
	bad := []Config{
		{Size: 0, BlockSize: 32, Assoc: 1},
		{Size: 16 << 10, BlockSize: 33, Assoc: 1},
		{Size: 16 << 10, BlockSize: 32, Assoc: 0},
		{Size: 48 << 10, BlockSize: 32, Assoc: 1}, // 1536 sets, not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) passed", c)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := dm16k(16, 0)
	r := c.Access(0x1000, false, 100)
	if r.Hit || r.Ready != 116 {
		t.Errorf("first access = %+v, want miss ready at 116", r)
	}
	// Access to another word in the same block while the fill is in flight.
	r = c.Access(0x101C, false, 101)
	if !r.DelayedHit || r.Ready != 116 {
		t.Errorf("delayed hit = %+v", r)
	}
	// After the fill completes it is a plain hit.
	r = c.Access(0x1000, false, 120)
	if !r.Hit || r.Ready != 120 {
		t.Errorf("post-fill access = %+v", r)
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 || s.DelayedHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConflictEvictionAndWriteback(t *testing.T) {
	c := dm16k(16, 0)
	// Two addresses that map to the same set in a 16KB DM cache.
	a, b := uint32(0x1000), uint32(0x1000+16<<10)
	c.Access(a, true, 0) // write-allocate, dirty
	c.Access(b, false, 100)
	s := c.Stats()
	if s.Evictions != 1 || s.Writebacks != 1 {
		t.Errorf("stats = %+v, want 1 eviction with writeback", s)
	}
	// A clean eviction does not write back.
	c.Access(a, false, 200)
	if s := c.Stats(); s.Writebacks != 1 {
		t.Errorf("clean eviction wrote back: %+v", s)
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c := New(Config{Size: 4 << 10, BlockSize: 32, Assoc: 2, MissLatency: 10})
	stride := uint32(2 << 10) // set-conflicting stride for 2-way 4KB
	c.Access(0x0000, false, 0)
	c.Access(stride, false, 1)
	// Both resident (2 ways). Touch the first to make the second LRU.
	if r := c.Access(0x0000, false, 20); !r.Hit {
		t.Error("way 0 evicted prematurely")
	}
	c.Access(2*stride, false, 21) // evicts 'stride'
	if r := c.Access(0x0000, false, 40); !r.Hit {
		t.Error("LRU evicted the wrong way")
	}
	if r := c.Access(stride, false, 41); r.Hit {
		t.Error("expected stride to have been evicted")
	}
}

func TestMSHRLimit(t *testing.T) {
	c := dm16k(16, 2)
	c.Access(0x0000, false, 0)
	c.Access(0x4000, false, 0)
	r := c.Access(0x8000, false, 1)
	if !r.MSHRFull {
		t.Fatalf("third concurrent miss not blocked: %+v", r)
	}
	if r.Ready != 16 {
		t.Errorf("retry cycle = %d, want 16 (earliest fill)", r.Ready)
	}
	// After the first fill completes, the miss can proceed.
	r = c.Access(0x8000, false, 17)
	if r.MSHRFull {
		t.Error("MSHR still full after fills completed")
	}
	// Blocked accesses are not counted.
	if s := c.Stats(); s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestProbe(t *testing.T) {
	c := dm16k(16, 0)
	if c.Probe(0x1000, 0) {
		t.Error("probe hit in empty cache")
	}
	c.Access(0x1000, false, 0)
	if c.Probe(0x1000, 5) {
		t.Error("probe hit while fill in flight")
	}
	if !c.Probe(0x1000, 16) {
		t.Error("probe miss after fill")
	}
}

func TestFlush(t *testing.T) {
	c := dm16k(16, 4)
	c.Access(0x1000, true, 0)
	c.Flush()
	if s := c.Stats(); s.Accesses != 0 {
		t.Errorf("stats after flush = %+v", s)
	}
	if c.Probe(0x1000, 100) {
		t.Error("line survived flush")
	}
}

func TestMissRatio(t *testing.T) {
	c := dm16k(1, 0)
	for i := 0; i < 10; i++ {
		c.Access(uint32(i*32), false, uint64(i*10))
	}
	for i := 0; i < 30; i++ {
		c.Access(uint32(i%10*32), false, uint64(1000+i*10))
	}
	got := c.Stats().MissRatio()
	if got != 0.25 { // 10 misses / 40 accesses
		t.Errorf("miss ratio = %v, want 0.25", got)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Error("empty miss ratio not 0")
	}
}

// Property: the same block never misses twice in a row without an
// intervening eviction of its set.
func TestTemporalLocalityProperty(t *testing.T) {
	c := dm16k(16, 0)
	r := rand.New(rand.NewSource(7))
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		addr := uint32(r.Intn(64)) * 32 // working set fits easily
		now += uint64(r.Intn(3))
		res := c.Access(addr, r.Intn(2) == 0, now)
		if i >= 2000 && !res.Hit && !res.DelayedHit {
			// After warmup everything in a 2KB working set must hit in 16KB.
			t.Fatalf("unexpected miss at %#x after warmup (i=%d)", addr, i)
		}
		if res.Ready < now {
			t.Fatal("ready before access cycle")
		}
	}
}

// eventLog records every cache event for flag inspection.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Event(e obs.Event) { l.events = append(l.events, e) }

func TestEventEmission(t *testing.T) {
	c := New(Config{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: 16, MSHRs: 1})
	log := &eventLog{}
	c.SetSink(log)

	c.Access(0x1000, false, 0)  // miss
	c.Access(0x101C, false, 1)  // delayed hit on the in-flight fill
	c.Access(0x2000, true, 2)   // second miss bounces: MSHR full
	c.Access(0x1000, false, 20) // plain hit after the fill
	c.Access(0x2000, true, 21)  // store miss

	want := []struct {
		flags obs.Flags
		ready uint64
	}{
		{0, 16},
		{obs.FlagDelayedHit, 16},
		{obs.FlagMSHRFull | obs.FlagStore, 16},
		{obs.FlagHit, 20},
		{obs.FlagStore, 37},
	}
	if len(log.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(log.events), len(want), log.events)
	}
	for i, w := range want {
		e := log.events[i]
		if e.Kind != obs.KindCacheAccess || e.Flags != w.flags || e.Val != w.ready {
			t.Errorf("event %d = %+v, want flags=%v ready=%d", i, e, w.flags, w.ready)
		}
	}
	// The stats and event stream agree: one event per accounted access
	// plus one per MSHR bounce.
	s := c.Stats()
	if got := s.Accesses + 1; got != uint64(len(log.events)) {
		t.Errorf("accesses+bounces %d != events %d", got, len(log.events))
	}

	// Detaching the sink stops emission without touching stats.
	c.SetSink(nil)
	c.Access(0x1000, false, 40)
	if len(log.events) != len(want) {
		t.Error("event emitted after SetSink(nil)")
	}
}

func TestMSHROccupancyHistogram(t *testing.T) {
	c := New(Config{Size: 16 << 10, BlockSize: 32, Assoc: 4, MissLatency: 100, MSHRs: 4})
	// Three concurrent misses to distinct blocks: occupancy samples 1, 2, 3.
	c.Access(0x1000, false, 0)
	c.Access(0x2000, false, 1)
	c.Access(0x3000, false, 2)
	h := c.Stats().MSHROcc
	if h.Count != 3 || h.Max != 3 {
		t.Fatalf("occupancy hist count=%d max=%d, want 3/3", h.Count, h.Max)
	}
	if h.Buckets[1] != 1 || h.Buckets[2] != 1 || h.Buckets[3] != 1 {
		t.Fatalf("occupancy buckets %v", h.Buckets)
	}

	// An unbounded cache never samples occupancy.
	u := dm16k(16, 0)
	u.Access(0x1000, false, 0)
	if u.Stats().MSHROcc.Count != 0 {
		t.Error("unbounded cache sampled MSHR occupancy")
	}
}

// TestNewAllocs pins New at two allocations, the Cache and one backing
// array of lines, whatever the geometry: a slice per set made the
// default 16 KiB direct-mapped cache 514 allocations.
func TestNewAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: 16},
		{Size: 64 << 10, BlockSize: 16, Assoc: 4, MissLatency: 16, MSHRs: 8},
		{Size: 1 << 10, BlockSize: 64, Assoc: 16, MissLatency: 1},
	} {
		if n := testing.AllocsPerRun(10, func() { New(cfg) }); n != 2 {
			t.Errorf("New(%+v) made %.0f allocations, want 2", cfg, n)
		}
	}
}
