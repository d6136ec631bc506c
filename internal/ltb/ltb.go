//lint:hotpath Access runs once per load of a functional pass.

// Package ltb implements the load target buffer of Golden & Mudge (1993),
// the alternative address-prediction mechanism the paper compares against
// in its Related Work section: a PC-indexed table that predicts a load's
// effective address from its own history, rather than from its operands.
// The paper argues fast address calculation is both cheaper and more
// accurate; the experiments package measures that claim (see
// experiments.CompareLTB).
//
// Two prediction policies are provided: last-address (predict the address
// the load produced last time) and stride (last address plus a confirmed
// stride, which captures array walks).
package ltb

import "fmt"

// Config sizes the buffer.
type Config struct {
	Entries int // direct-mapped entry count (power of two)
	// Stride enables stride prediction: a 2-bit confidence counter guards
	// last+stride; without it the entry predicts the last address.
	Stride bool
	// TagBits truncates the stored tag to its low TagBits bits, modeling a
	// partial-tag table (a hardware-cost knob: fewer tag bits means false
	// sharing between loads that alias). 0 keeps the full tag.
	TagBits uint
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("ltb: entry count %d not a positive power of two", c.Entries)
	}
	if c.TagBits > 30 {
		return fmt.Errorf("ltb: tag bits %d exceed the 30 usable PC-word bits", c.TagBits)
	}
	return nil
}

// entry's fields are ordered so it packs into 16 bytes.
type entry struct {
	tag        uint32
	lastAddr   uint32
	stride     uint32
	valid      bool
	confidence uint8 // 2-bit: >=2 uses the stride
}

// predict forms the entry's prediction: last+stride once the stride is
// confirmed under the stride policy, else the last address.
func (e *entry) predict(stride bool) (addr uint32, usedStride bool) {
	if stride && e.confidence >= 2 {
		return e.lastAddr + e.stride, true
	}
	return e.lastAddr, false
}

// train moves a hit entry to the architectural address actual.
func (e *entry) train(stride bool, actual uint32) {
	if stride {
		if newStride := actual - e.lastAddr; newStride == e.stride {
			if e.confidence < 3 {
				e.confidence++
			}
		} else {
			if e.confidence > 0 {
				e.confidence--
			}
			if e.confidence == 0 {
				e.stride = newStride
			}
		}
	}
	e.lastAddr = actual
}

// Predictor is a direct-mapped load target buffer.
type Predictor struct {
	cfg     Config
	entries []entry
	idxBits uint

	lookups uint64
	hits    uint64 // predictions made (entry present)
	correct uint64
}

// New builds a predictor; it panics on invalid geometry.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{cfg: cfg, entries: make([]entry, cfg.Entries)}
	for 1<<p.idxBits < cfg.Entries {
		p.idxBits++
	}
	return p
}

// slot returns the entry pc indexes and the tag pc would store there.
func (p *Predictor) slot(pc uint32) (*entry, uint32) {
	word := pc >> 2
	tag := word >> p.idxBits
	if p.cfg.TagBits > 0 {
		tag &= 1<<p.cfg.TagBits - 1
	}
	return &p.entries[word&uint32(p.cfg.Entries-1)], tag
}

// Predict returns the predicted effective address for the load at pc.
// ok is false on a cold or conflicting entry (no prediction; the access
// proceeds non-speculatively).
func (p *Predictor) Predict(pc uint32) (addr uint32, ok bool) {
	addr, _, ok = p.Lookup(pc)
	return addr, ok
}

// Lookup is Predict plus the path taken: usedStride reports whether the
// prediction came from the confirmed-stride path (last+stride) rather than
// the last-address path. Pure — table state is unchanged.
func (p *Predictor) Lookup(pc uint32) (addr uint32, usedStride, ok bool) {
	e, tag := p.slot(pc)
	if !e.valid || e.tag != tag {
		return 0, false, false
	}
	addr, usedStride = e.predict(p.cfg.Stride)
	return addr, usedStride, true
}

// Access performs a full predict-then-update step for the load at pc with
// architectural address actual, and reports whether a prediction was made
// and whether it was correct. It is Lookup followed by Update, indexing
// the table once.
func (p *Predictor) Access(pc, actual uint32) (predicted, correct bool) {
	p.lookups++
	e, tag := p.slot(pc)
	if !e.valid || e.tag != tag {
		*e = entry{valid: true, tag: tag, lastAddr: actual}
		return false, false
	}
	p.hits++
	if pred, _ := e.predict(p.cfg.Stride); pred == actual {
		p.correct++
		correct = true
	}
	e.train(p.cfg.Stride, actual)
	return true, correct
}

// Update trains the entry for pc with the architectural address. Exposed so
// callers that separate predict (issue stage) from train (EX stage) — the
// internal/predict machines — can drive the table directly; Access composes
// the two for trace-replay counting.
func (p *Predictor) Update(pc, actual uint32) {
	e, tag := p.slot(pc)
	if !e.valid || e.tag != tag {
		*e = entry{valid: true, tag: tag, lastAddr: actual}
		return
	}
	e.train(p.cfg.Stride, actual)
}

// Stats returns (lookups, predictions made, correct predictions).
func (p *Predictor) Stats() (lookups, predicted, correct uint64) {
	return p.lookups, p.hits, p.correct
}

// Accuracy returns correct predictions as a fraction of all lookups (cold
// misses count as failures, as they deny the latency benefit).
func (p *Predictor) Accuracy() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.lookups)
}

// Coverage returns the fraction of lookups for which a prediction existed.
func (p *Predictor) Coverage() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.lookups)
}
