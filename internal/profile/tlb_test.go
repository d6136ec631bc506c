package profile

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func TestTLBHitsAndMisses(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if tlb.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !tlb.Access(0x1FFC) { // same 4KB page
		t.Error("same-page access missed")
	}
	if tlb.Access(0x2000) { // next page
		t.Error("new page hit")
	}
	acc, miss := tlb.Counts()
	if acc != 3 || miss != 2 {
		t.Errorf("counts = %d/%d", acc, miss)
	}
	if tlb.MissRatio() != 2.0/3 {
		t.Errorf("miss ratio = %v", tlb.MissRatio())
	}
}

func TestTLBCapacity(t *testing.T) {
	cfg := TLBConfig{Entries: 4, PageBits: 12}
	tlb := NewTLB(cfg)
	// Touch 4 pages, then re-touch: all hits (capacity holds them).
	for p := uint32(0); p < 4; p++ {
		tlb.Access(p << 12)
	}
	for p := uint32(0); p < 4; p++ {
		if !tlb.Access(p << 12) {
			t.Errorf("page %d evicted within capacity", p)
		}
	}
	// A working set far beyond capacity must keep missing.
	misses := 0
	for i := 0; i < 1000; i++ {
		if !tlb.Access(uint32(i%100) << 12) {
			misses++
		}
	}
	if misses < 500 {
		t.Errorf("only %d misses on a 100-page working set in a 4-entry TLB", misses)
	}
}

func TestTLBDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		tlb := NewTLB(DefaultTLBConfig())
		for i := 0; i < 5000; i++ {
			tlb.Access(uint32(i*7%200) << 12)
		}
		return tlb.Counts()
	}
	a1, m1 := run()
	a2, m2 := run()
	if a1 != a2 || m1 != m2 {
		t.Error("TLB replacement not deterministic")
	}
}

func TestTLBEmptyRatio(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if tlb.MissRatio() != 0 {
		t.Error("empty TLB miss ratio not 0")
	}
}

func TestProfilerTracksTLB(t *testing.T) {
	p := New()
	p.Note(mkTrace(isa.LW, isa.GP, 0x10000000, 0, false))
	p.Note(mkTrace(isa.LW, isa.GP, 0x10000004, 0, false)) // same page
	p.Note(mkTrace(isa.LW, isa.GP, 0x20000000, 0, false)) // new page
	if p.P.TLBAccesses != 3 || p.P.TLBMisses != 2 {
		t.Errorf("profiler TLB counts = %d/%d", p.P.TLBAccesses, p.P.TLBMisses)
	}
	if p.P.DTLBMissRatio() != 2.0/3 {
		t.Errorf("DTLBMissRatio = %v", p.P.DTLBMissRatio())
	}
}

// searchTLB is the plain fully-associative TLB the hinted one must match:
// a linear search of every valid entry, filling the lowest invalid entry
// and then replacing with the same xorshift sequence.
type searchTLB struct {
	pages []uint32
	valid []bool
	rng   uint32
}

func (m *searchTLB) access(page uint32) bool {
	for i, p := range m.pages {
		if m.valid[i] && p == page {
			return true
		}
	}
	slot := -1
	for i, v := range m.valid {
		if !v {
			slot = i
			break
		}
	}
	if slot < 0 {
		m.rng ^= m.rng << 13
		m.rng ^= m.rng >> 17
		m.rng ^= m.rng << 5
		slot = int(m.rng % uint32(len(m.pages)))
	}
	m.pages[slot], m.valid[slot] = page, true
	return false
}

// TestTLBMatchesSearch drives the hinted TLB and the plain search with one
// seeded stream and requires the same hit or miss on every access. The
// stream mixes same-page bursts, strided walks, random pages from a
// working set of 300, and pages a hint-table length apart, which share a
// hint and must evict each other's hints without a false hit.
func TestTLBMatchesSearch(t *testing.T) {
	cfg := DefaultTLBConfig()
	tlb := NewTLB(cfg)
	model := &searchTLB{pages: make([]uint32, cfg.Entries), valid: make([]bool, cfg.Entries), rng: 0x2545F491}
	collide := uint32(len(tlb.hint)) // pages this far apart share a hint
	rng := rand.New(rand.NewSource(1))
	var stream []uint32
	for len(stream) < 120000 {
		switch rng.Intn(4) {
		case 0: // a burst on one page
			page := uint32(rng.Intn(300))
			for i := rng.Intn(50); i >= 0; i-- {
				stream = append(stream, page)
			}
		case 1: // a strided walk
			page, stride := uint32(rng.Intn(300)), uint32(1+rng.Intn(7))
			for i := rng.Intn(100); i >= 0; i-- {
				stream = append(stream, page)
				page += stride
			}
		case 2: // pages that collide in the hint table
			base := uint32(rng.Intn(int(collide)))
			for i := rng.Intn(40); i >= 0; i-- {
				stream = append(stream, base+collide*uint32(rng.Intn(6)))
			}
		default: // scattered accesses over the working set
			for i := rng.Intn(40); i >= 0; i-- {
				stream = append(stream, uint32(rng.Intn(300)))
			}
		}
	}
	pages := map[uint32]bool{}
	hits := 0
	for i, page := range stream {
		pages[page] = true
		addr := page<<cfg.PageBits | uint32(rng.Intn(1<<cfg.PageBits))
		got, want := tlb.Access(addr), model.access(page)
		if got != want {
			t.Fatalf("access %d (page %#x): hit=%v, plain search gives %v", i, page, got, want)
		}
		if got {
			hits++
		}
	}
	acc, miss := tlb.Counts()
	if acc != uint64(len(stream)) || miss != uint64(len(stream)-hits) {
		t.Errorf("counts %d/%d, want %d/%d", acc, miss, len(stream), len(stream)-hits)
	}
	if len(pages) <= 200 || hits < len(stream)/10 || miss < uint64(len(stream)/10) {
		t.Errorf("stream too one-sided: %d pages, %d hits, %d misses", len(pages), hits, miss)
	}
}
