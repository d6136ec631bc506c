// Package cache models the first-level instruction and data caches of the
// paper's baseline machine (Table 5): direct-mapped or set-associative,
// write-back write-allocate, non-blocking with a bounded number of
// outstanding misses. The model tracks tag state and per-line fill times;
// port scheduling (two reads or one store per cycle) is the pipeline's job.
package cache

import (
	"fmt"

	"repro/internal/obs"
)

// Config describes one cache.
type Config struct {
	Size        int // total bytes
	BlockSize   int // bytes per block
	Assoc       int // ways; 1 = direct-mapped
	MissLatency int // cycles to fill a block from the next level
	MSHRs       int // max outstanding misses; 0 = unlimited
}

// Validate checks geometry.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.BlockSize <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockSize)
	case c.Size%(c.BlockSize*c.Assoc) != 0:
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.Size)
	case (c.Size/(c.BlockSize*c.Assoc))&(c.Size/(c.BlockSize*c.Assoc)-1) != 0:
		return fmt.Errorf("cache: set count not a power of two")
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	DelayedHits uint64 // hits on a block still being filled
	Evictions   uint64
	Writebacks  uint64
	// MSHROcc samples the number of outstanding misses at each miss
	// (after allocation), i.e. the occupancy the new miss observes.
	// Only populated when the cache bounds outstanding misses.
	MSHROcc obs.Hist
}

// MissRatio returns misses/accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   uint32
	ready uint64 // cycle the fill completes (<= now means resident)
	lru   uint64 // last-touch cycle for replacement
}

// Cache is a timing model of one cache array.
type Cache struct {
	cfg       Config
	lines     []line // every set's ways, set by set: set i is lines[i*Assoc:][:Assoc]
	idxMask   uint32
	blockBits uint
	idxBits   uint
	stats     Stats

	outstanding []uint64 // ready cycles of in-flight misses (MSHR tracking)

	sink obs.Sink // nil = no event stream (the common, free case)
}

// New builds a cache; it panics on invalid geometry (configuration is a
// programming error, not an input condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Size / (cfg.BlockSize * cfg.Assoc)
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc)}
	c.blockBits = log2(uint(cfg.BlockSize))
	c.idxBits = log2(uint(nsets))
	c.idxMask = uint32(nsets - 1)
	return c
}

func log2(v uint) uint {
	n := uint(0)
	for 1<<n < v {
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SetSink attaches an event sink (nil detaches). Every Access emits one
// KindCacheAccess event; emission is free when no sink is attached.
func (c *Cache) SetSink(s obs.Sink) { c.sink = s }

// Result describes the outcome of one access.
type Result struct {
	// Ready is the cycle at which the data is available (== the access
	// cycle on a hit). When MSHRFull is set it is instead the earliest
	// cycle at which the access can be retried.
	Ready      uint64
	Hit        bool
	DelayedHit bool
	MSHRFull   bool
}

func (c *Cache) lookup(addr uint32) (set []line, tag uint32) {
	i := int(addr>>c.blockBits&c.idxMask) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc], addr >> (c.blockBits + c.idxBits)
}

// pruneMSHRs drops completed misses from the outstanding list.
func (c *Cache) pruneMSHRs(now uint64) {
	keep := c.outstanding[:0]
	for _, r := range c.outstanding {
		if r > now {
			keep = append(keep, r)
		}
	}
	c.outstanding = keep
}

// Access performs a read or write at addr during cycle now and returns its
// timing outcome. Writes mark the block dirty (write-allocate on miss).
func (c *Cache) Access(addr uint32, write bool, now uint64) Result {
	c.stats.Accesses++
	set, tag := c.lookup(addr)

	// Hit (possibly on an in-flight fill)?
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = now
			if write {
				l.dirty = true
			}
			if l.ready > now {
				c.stats.DelayedHits++
				if c.sink != nil {
					c.emit(addr, write, now, l.ready, obs.FlagDelayedHit)
				}
				return Result{Ready: l.ready, DelayedHit: true}
			}
			if c.sink != nil {
				c.emit(addr, write, now, now, obs.FlagHit)
			}
			return Result{Ready: now, Hit: true}
		}
	}

	// Miss. Check MSHR availability.
	if c.cfg.MSHRs > 0 {
		c.pruneMSHRs(now)
		if len(c.outstanding) >= c.cfg.MSHRs {
			earliest := c.outstanding[0]
			for _, r := range c.outstanding[1:] {
				if r < earliest {
					earliest = r
				}
			}
			c.stats.Accesses-- // the access did not happen; it must retry
			if c.sink != nil {
				c.emit(addr, write, now, earliest, obs.FlagMSHRFull)
			}
			return Result{Ready: earliest, MSHRFull: true}
		}
	}
	c.stats.Misses++

	// Choose a victim: invalid first, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	ready := now + uint64(c.cfg.MissLatency)
	*v = line{valid: true, dirty: write, tag: tag, ready: ready, lru: now}
	if c.cfg.MSHRs > 0 {
		c.outstanding = append(c.outstanding, ready)
		c.stats.MSHROcc.Add(uint64(len(c.outstanding)))
	}
	if c.sink != nil {
		c.emit(addr, write, now, ready, 0)
	}
	return Result{Ready: ready}
}

// emit sends one cache-access event; callers guard on c.sink != nil so
// the event value never materializes on the disabled path.
func (c *Cache) emit(addr uint32, write bool, now, ready uint64, flags obs.Flags) {
	if write {
		flags |= obs.FlagStore
	}
	c.sink.Event(obs.Event{Kind: obs.KindCacheAccess, Flags: flags, Cycle: now, Addr: addr, Val: ready})
}

// Probe reports whether addr currently hits (resident and filled) without
// changing any state. Used by tests and by store-buffer policies.
func (c *Cache) Probe(addr uint32, now uint64) bool {
	set, tag := c.lookup(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag && l.ready <= now {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	clear(c.lines)
	c.stats = Stats{}
	c.outstanding = nil
}
