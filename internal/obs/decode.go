package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// UnmarshalJSON reads a record in one pass, without reflection: every
// record decode (a facd client's, a result cache's, DecodeReport's)
// takes this path. It accepts whatever the repository's encoders write
// (json.Marshal, json.MarshalIndent, facd's answers), keys in any order
// and any whitespace, and whatever it accepts encoding/json decodes to
// the same record (FuzzRunRecord). It is stricter than encoding/json: an
// unknown, case-variant or repeated key, a null, more than HistBuckets
// histogram buckets, trailing data and a number outside uint64 are
// errors. On an error r holds what was read before it.
func (r *RunRecord) UnmarshalJSON(data []byte) error {
	return decode(data, r, recordFields)
}

// UnmarshalJSON reads an answer as RunRecord.UnmarshalJSON reads a
// record, so a client hands it the body whole and encoding/json never
// scans it.
func (a *RunAnswer) UnmarshalJSON(data []byte) error {
	return decode(data, a, answerFields)
}

// field is one key of an object of type T and the reader of its value.
type field[T any] struct {
	key  string
	read func(*decoder, *T)
}

var answerFields = []field[RunAnswer]{
	{"cache_hit", func(d *decoder, a *RunAnswer) { a.CacheHit = d.bool() }},
	{"record", func(d *decoder, a *RunAnswer) { object(d, &a.Record, recordFields) }},
}

var recordFields = []field[RunRecord]{
	{"schema", func(d *decoder, r *RunRecord) { r.Schema = d.str() }},
	{"benchmark", func(d *decoder, r *RunRecord) { r.Benchmark = d.str() }},
	{"class", func(d *decoder, r *RunRecord) { r.Class = d.str() }},
	{"toolchain", func(d *decoder, r *RunRecord) { r.Toolchain = d.str() }},
	{"machine", func(d *decoder, r *RunRecord) { r.Machine = d.str() }},
	{"cycles", func(d *decoder, r *RunRecord) { r.Cycles = d.uint() }},
	{"instructions", func(d *decoder, r *RunRecord) { r.Insts = d.uint() }},
	{"ipc", func(d *decoder, r *RunRecord) { r.IPC = d.float() }},
	{"loads", func(d *decoder, r *RunRecord) { r.Loads = d.uint() }},
	{"stores", func(d *decoder, r *RunRecord) { r.Stores = d.uint() }},
	{"issue_active_cycles", func(d *decoder, r *RunRecord) { r.IssueActiveCycles = d.uint() }},
	{"stall_cycles_total", func(d *decoder, r *RunRecord) { r.StallCyclesTotal = d.uint() }},
	{"stall_cycles", func(d *decoder, r *RunRecord) { object(d, &r.Stalls, stallFields) }},
	{"branch_lookups", func(d *decoder, r *RunRecord) { r.BranchLookups = d.uint() }},
	{"branch_mispredicts", func(d *decoder, r *RunRecord) { r.BranchMispredicts = d.uint() }},
	{"store_buffer_full_stalls", func(d *decoder, r *RunRecord) { r.StoreBufFull = d.uint() }},
	{"load_latency", func(d *decoder, r *RunRecord) { object(d, &r.LoadLatency, histFields) }},
	{"fac", func(d *decoder, r *RunRecord) { r.FAC = new(FACRecord); object(d, r.FAC, facFields) }},
	{"icache", func(d *decoder, r *RunRecord) { r.ICache = new(CacheRecord); object(d, r.ICache, cacheFields) }},
	{"dcache", func(d *decoder, r *RunRecord) { r.DCache = new(CacheRecord); object(d, r.DCache, cacheFields) }},
}

var stallFields = []field[StallBreakdown]{
	{"frontend", func(d *decoder, b *StallBreakdown) { b.Frontend = d.uint() }},
	{"operand", func(d *decoder, b *StallBreakdown) { b.Operand = d.uint() }},
	{"unit", func(d *decoder, b *StallBreakdown) { b.Unit = d.uint() }},
	{"mem_port", func(d *decoder, b *StallBreakdown) { b.MemPort = d.uint() }},
	{"store_buffer", func(d *decoder, b *StallBreakdown) { b.StoreBuffer = d.uint() }},
	{"drain", func(d *decoder, b *StallBreakdown) { b.Drain = d.uint() }},
}

var histFields = []field[Hist]{
	{"buckets", func(d *decoder, h *Hist) { d.buckets(&h.Buckets) }},
	{"count", func(d *decoder, h *Hist) { h.Count = d.uint() }},
	{"sum", func(d *decoder, h *Hist) { h.Sum = d.uint() }},
	{"max", func(d *decoder, h *Hist) { h.Max = d.uint() }},
}

var facFields = []field[FACRecord]{
	{"loads_speculated", func(d *decoder, f *FACRecord) { f.LoadsSpeculated = d.uint() }},
	{"load_fails", func(d *decoder, f *FACRecord) { f.LoadFails = d.uint() }},
	{"stores_speculated", func(d *decoder, f *FACRecord) { f.StoresSpeculated = d.uint() }},
	{"store_fails", func(d *decoder, f *FACRecord) { f.StoreFails = d.uint() }},
	{"extra_accesses", func(d *decoder, f *FACRecord) { f.ExtraAccesses = d.uint() }},
	{"load_fail_kinds", func(d *decoder, f *FACRecord) { object(d, &f.LoadFailKinds, failureFields) }},
	{"store_fail_kinds", func(d *decoder, f *FACRecord) { object(d, &f.StoreFailKinds, failureFields) }},
	{"predictor", func(d *decoder, f *FACRecord) { f.Predictor = d.str() }},
	{"loads_nopredict", func(d *decoder, f *FACRecord) { f.LoadsNoPredict = d.uint() }},
	{"stores_nopredict", func(d *decoder, f *FACRecord) { f.StoresNoPredict = d.uint() }},
	{"load_fail_causes", func(d *decoder, f *FACRecord) { f.LoadFailCauses = d.counts() }},
	{"store_fail_causes", func(d *decoder, f *FACRecord) { f.StoreFailCauses = d.counts() }},
}

var failureFields = []field[FailureBreakdown]{
	{"overflow", func(d *decoder, b *FailureBreakdown) { b.Overflow = d.uint() }},
	{"gencarry", func(d *decoder, b *FailureBreakdown) { b.GenCarry = d.uint() }},
	{"largenegconst", func(d *decoder, b *FailureBreakdown) { b.LargeNegConst = d.uint() }},
	{"negindexreg", func(d *decoder, b *FailureBreakdown) { b.NegIndexReg = d.uint() }},
}

var cacheFields = []field[CacheRecord]{
	{"accesses", func(d *decoder, c *CacheRecord) { c.Accesses = d.uint() }},
	{"misses", func(d *decoder, c *CacheRecord) { c.Misses = d.uint() }},
	{"delayed_hits", func(d *decoder, c *CacheRecord) { c.DelayedHits = d.uint() }},
	{"evictions", func(d *decoder, c *CacheRecord) { c.Evictions = d.uint() }},
	{"writebacks", func(d *decoder, c *CacheRecord) { c.Writebacks = d.uint() }},
	{"mshr_occupancy", func(d *decoder, c *CacheRecord) { object(d, &c.MSHROcc, histFields) }},
}

// decode reads data, one object of type T and nothing after it, into a
// zeroed *v.
func decode[T any](data []byte, v *T, fields []field[T]) error {
	d := decoder{data: data}
	var zero T
	*v = zero
	object(&d, v, fields)
	if d.peek(); d.err == nil && d.off < len(d.data) {
		d.fail("trailing data")
	}
	return d.err
}

// object reads an object whose keys are all in fields, each at most
// once, into *v.
func object[T any](d *decoder, v *T, fields []field[T]) {
	var seen uint64
	next := 0 // the encoders write keys in fields' order
	d.each(func(key []byte) bool {
		for i, j := next, 0; j < len(fields); i, j = i+1, j+1 {
			if i == len(fields) {
				i = 0
			}
			if fields[i].key != string(key) {
				continue
			}
			if seen&(1<<i) != 0 {
				d.fail("duplicate key %q", key)
				return true
			}
			seen |= 1 << i
			next = i + 1
			fields[i].read(d, v)
			return true
		}
		return false
	})
}

// decoder reads JSON values from data. The first error sticks: it moves
// off to the end, so every later read fails at once and returns zero.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("obs: decode run record: offset %d: %s", d.off, fmt.Sprintf(format, args...))
		d.off = len(d.data)
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	i := d.off
	for ; i < len(d.data); i++ {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

// eat consumes c, the next byte after whitespace, or fails.
func (d *decoder) eat(c byte) bool {
	if d.peek() != c {
		d.fail("want %q", c)
		return false
	}
	d.off++
	return true
}

// open consumes start and reports whether elements follow, consuming
// end at once when none do.
func (d *decoder) open(start, end byte) bool {
	if !d.eat(start) {
		return false
	}
	d.peek()
	return !d.skip(end)
}

// more consumes the ',' after an element and reports true, or the end
// of the container and reports false.
func (d *decoder) more(end byte) bool {
	switch d.peek() {
	case ',':
		d.off++
		return true
	case end:
		d.off++
		return false
	}
	d.fail("want ',' or %q", end)
	return false
}

// each reads an object, calling field with each key once the reader
// stands at the key's value; field reports whether it knows the key.
func (d *decoder) each(field func(key []byte) bool) {
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.strBytes()
		if d.eat(':') && !field(key) {
			d.fail("unknown key %q", key)
		}
	}
}

// counts reads an object of counts into a new map, an empty one for {}
// as encoding/json makes it.
func (d *decoder) counts() map[string]uint64 {
	m := map[string]uint64{}
	d.each(func(key []byte) bool {
		if _, dup := m[string(key)]; dup {
			d.fail("duplicate key %q", key)
		} else {
			m[string(key)] = d.uint()
		}
		return true
	})
	return m
}

// buckets reads a histogram's buckets, at most HistBuckets of them.
func (d *decoder) buckets(b *[HistBuckets]uint64) {
	for n, more := 0, d.open('[', ']'); more; n, more = n+1, d.more(']') {
		if n == HistBuckets {
			d.fail("histogram has more than %d buckets", HistBuckets)
			return
		}
		b[n] = d.uint()
	}
}

func (d *decoder) str() string { return string(d.strBytes()) }

// strBytes reads a string. A string of ASCII without escapes or control
// characters is its own bytes; any other goes through encoding/json, so
// escapes and invalid UTF-8 decode exactly as there.
func (d *decoder) strBytes() []byte {
	if !d.eat('"') {
		return nil
	}
	start := d.off
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i]
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return d.slowStr(start - 1)
		}
	}
	d.fail("unterminated string")
	return nil
}

// slowStr decodes the string literal at data[start:] with encoding/json.
func (d *decoder) slowStr(start int) []byte {
	end := start + 1
	for ; end < len(d.data) && d.data[end] != '"'; end++ {
		if d.data[end] == '\\' {
			end++
		}
	}
	if end >= len(d.data) {
		d.fail("unterminated string")
		return nil
	}
	var s string
	if err := json.Unmarshal(d.data[start:end+1], &s); err != nil {
		d.fail("%v", err)
		return nil
	}
	d.off = end + 1
	return []byte(s)
}

// uint reads an unsigned integer: digits, no leading zero, at most
// math.MaxUint64.
func (d *decoder) uint() uint64 {
	if c := d.peek(); c < '0' || c > '9' {
		d.fail("want an unsigned integer")
		return 0
	}
	start := d.off
	var v uint64
	for ; d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9'; d.off++ {
		c := uint64(d.data[d.off] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.fail("integer overflows uint64")
			return 0
		}
		v = v*10 + c
	}
	if d.data[start] == '0' && d.off-start > 1 {
		d.fail("integer has a leading zero")
		return 0
	}
	return v
}

// float reads a number in JSON's grammar and converts it as
// encoding/json does.
func (d *decoder) float() float64 {
	d.peek()
	start := d.off
	d.skip('-')
	ok := d.skip('0') || d.digits()
	if ok && d.skip('.') {
		ok = d.digits()
	}
	if ok && (d.skip('e') || d.skip('E')) {
		_ = d.skip('+') || d.skip('-')
		ok = d.digits()
	}
	if !ok {
		d.fail("want a number")
		return 0
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.off]), 64)
	if err != nil {
		d.fail("%v", err)
		return 0
	}
	return f
}

// skip consumes c if it is the next byte.
func (d *decoder) skip(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// digits consumes a run of digits and reports whether it was not empty.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// bool reads true or false.
func (d *decoder) bool() bool {
	d.peek()
	switch rest := d.data[d.off:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.off += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.off += len("false")
		return false
	}
	d.fail("want true or false")
	return false
}
