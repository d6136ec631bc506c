//lint:hotpath Access runs once per data reference of a profiled program.

package profile

// TLB models the paper's data TLB experiment (Section 5.4): a 64-entry,
// fully-associative, randomly-replaced translation buffer with 4KB pages,
// used to check that the software alignment support does not hurt virtual
// memory behaviour.

// TLBConfig sizes the TLB.
type TLBConfig struct {
	Entries  int
	PageBits uint
}

// DefaultTLBConfig matches the paper: 64 entries, 4KB pages.
func DefaultTLBConfig() TLBConfig { return TLBConfig{Entries: 64, PageBits: 12} }

// hintsPerEntry sizes the hint table: four hints per entry keep pages
// that are resident together from sharing a hint in the common case.
const hintsPerEntry = 4

// TLB is the translation buffer model.
//
// A fully-associative lookup is a search of every entry. Nearly every
// access hits, and usually on a page hit shortly before, so the TLB
// remembers, per page-number hash, the slot that page last hit or filled:
// way memoization (Ishihara & Fallah), done in software. A hint is
// only a guess: it is trusted only once the slot it names is found to
// hold the page. A wrong or stale hint falls back to searching the
// entries, so hits, misses and replacement are those of the plain search.
type TLB struct {
	cfg    TLBConfig
	pages  []uint32 // the page held in each slot; slots [0, filled) are valid
	filled int      // entries are filled in slot order and never invalidated
	hint   []int32  // per page-number hash: the slot that page last used
	rng    uint32   // deterministic xorshift state for random replacement
	access uint64
	misses uint64
}

// NewTLB creates a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	n := 1
	for n < hintsPerEntry*cfg.Entries {
		n <<= 1
	}
	return &TLB{
		cfg:   cfg,
		pages: make([]uint32, cfg.Entries),
		hint:  make([]int32, n),
		rng:   0x2545F491,
	}
}

// Access translates one data address, updating miss statistics.
func (t *TLB) Access(addr uint32) (hit bool) {
	t.access++
	page := addr >> t.cfg.PageBits
	h := &t.hint[page&uint32(len(t.hint)-1)]
	if s := int(*h); s < t.filled && t.pages[s] == page {
		return true
	}
	for s, p := range t.pages[:t.filled] {
		if p == page {
			*h = int32(s)
			return true
		}
	}
	t.misses++
	// Fill the next invalid entry while one exists; otherwise replace at
	// random (xorshift for determinism).
	slot := t.filled
	if slot < len(t.pages) {
		t.filled++
	} else {
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 17
		t.rng ^= t.rng << 5
		slot = int(t.rng % uint32(t.cfg.Entries))
	}
	t.pages[slot] = page
	*h = int32(slot)
	return false
}

// MissRatio returns misses/accesses.
func (t *TLB) MissRatio() float64 {
	if t.access == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.access)
}

// Counts returns (accesses, misses).
func (t *TLB) Counts() (uint64, uint64) { return t.access, t.misses }
