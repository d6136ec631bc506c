package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fac"
)

func TestHistAddMeanMax(t *testing.T) {
	var h Hist
	for _, v := range []uint64{1, 1, 2, 5, 100} {
		h.Add(v)
	}
	if h.Count != 5 || h.Sum != 109 || h.Max != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count, h.Sum, h.Max)
	}
	if h.Buckets[1] != 2 || h.Buckets[2] != 1 || h.Buckets[5] != 1 {
		t.Fatalf("unexpected buckets %v", h.Buckets)
	}
	// 100 overflows into the last bucket.
	if h.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d", h.Buckets[HistBuckets-1])
	}
	if got, want := h.Mean(), 109.0/5; got != want {
		t.Fatalf("mean %v, want %v", got, want)
	}
}

func TestHistJSONRoundTripTrimsTrailingZeros(t *testing.T) {
	var h Hist
	h.Add(1)
	h.Add(3)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets beyond index 3 are zero and must be trimmed.
	if want := `"buckets":[0,1,0,1]`; !bytes.Contains(data, []byte(want)) {
		t.Fatalf("marshal = %s, want to contain %s", data, want)
	}
	var back Hist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip: got %+v want %+v", back, h)
	}
}

func TestStallBreakdownTotal(t *testing.T) {
	var counts [NumStallCauses]uint64
	for i := range counts {
		counts[i] = uint64(i + 1)
	}
	var b StallBreakdown
	b.FromCounts(counts)
	var want uint64
	for _, c := range counts {
		want += c
	}
	if b.Total() != want {
		t.Fatalf("Total = %d, want %d", b.Total(), want)
	}
	if b.Frontend != 1 || b.Drain != uint64(NumStallCauses) {
		t.Fatalf("field mapping wrong: %+v", b)
	}
}

func TestFailureBreakdownFromCountInto(t *testing.T) {
	var counts [fac.NumFailureSignals]uint64
	(fac.FailOverflow | fac.FailGenCarry).CountInto(&counts)
	fac.FailGenCarry.CountInto(&counts)
	var b FailureBreakdown
	b.FromCounts(counts)
	if b.Overflow != 1 || b.GenCarry != 2 || b.LargeNegConst != 0 || b.NegIndexReg != 0 {
		t.Fatalf("breakdown %+v", b)
	}
}

func TestSiteCollectorTopFailing(t *testing.T) {
	c := NewSiteCollector()
	emit := func(pc uint32, fail fac.Failure, n int) {
		for i := 0; i < n; i++ {
			c.Event(Event{Kind: KindFACPredict, PC: pc, Fail: fail})
		}
	}
	emit(0x100, 0, 10)               // never fails
	emit(0x200, fac.FailGenCarry, 3) // 3 fails
	emit(0x300, fac.FailOverflow, 3) // 3 fails (tie, higher pc)
	emit(0x400, fac.FailNegIndexReg, 5)
	c.Event(Event{Kind: KindIssue, PC: 0x500}) // ignored

	top := c.TopFailing(10)
	if len(top) != 3 {
		t.Fatalf("got %d failing sites, want 3", len(top))
	}
	if top[0].PC != 0x400 || top[1].PC != 0x200 || top[2].PC != 0x300 {
		t.Fatalf("order: %#x %#x %#x", top[0].PC, top[1].PC, top[2].PC)
	}
	if top[1].FailRate() != 1.0 {
		t.Fatalf("fail rate %v", top[1].FailRate())
	}
	if got := c.TopFailing(1); len(got) != 1 || got[0].PC != 0x400 {
		t.Fatalf("TopFailing(1) = %+v", got)
	}
}

func TestCounterAndTee(t *testing.T) {
	var a, b Counter
	tee := Tee{&a, &b}
	tee.Event(Event{Kind: KindIssue})
	tee.Event(Event{Kind: KindStall})
	tee.Event(Event{Kind: KindIssue})
	if a.ByKind[KindIssue] != 2 || b.ByKind[KindStall] != 1 || a.Total() != 3 {
		t.Fatalf("counter state: %+v %+v", a, b)
	}
}

func sampleRecord(bench, tc, machine string, cycles uint64) RunRecord {
	r := RunRecord{
		Schema: RunRecordSchema, Benchmark: bench, Toolchain: tc, Machine: machine,
		Cycles: cycles, Insts: cycles * 2, IPC: 2.0,
	}
	r.Stalls = StallBreakdown{Frontend: 5, Operand: 10}
	r.StallCyclesTotal = r.Stalls.Total()
	return r
}

func TestReportEncodeDeterministicAndSorted(t *testing.T) {
	mk := func(order []int) []byte {
		rep := NewReport("test", "go0")
		recs := []RunRecord{
			sampleRecord("b", "base", "fac32", 100),
			sampleRecord("a", "fac", "base32", 200),
			sampleRecord("a", "base", "base32", 300),
		}
		for _, i := range order {
			rep.Add(recs[i])
		}
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	x := mk([]int{0, 1, 2})
	y := mk([]int{2, 0, 1})
	if !bytes.Equal(x, y) {
		t.Fatalf("encoding depends on insertion order:\n%s\nvs\n%s", x, y)
	}
	rep, err := DecodeReport(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 3 || rep.Records[0].Key() != "a|base|base32" {
		t.Fatalf("decoded records out of order: %+v", rep.Records)
	}
	if _, err := DecodeReport([]byte(`{"schema":"bogus","records":[]}`)); err == nil {
		t.Fatal("expected schema error")
	}
}

// TestRunRecordCloneSharesNothing: a clone equals its record, and every
// pointer and map the record holds, at any depth, is a fresh one in the
// clone. The walk visits every field by reflection, so a reference field
// added to RunRecord fails here until the test record fills it and Clone
// copies it.
func TestRunRecordCloneSharesNothing(t *testing.T) {
	r := sampleRecord("b", "base", "stride", 100)
	r.FAC = &FACRecord{LoadFails: 1, Predictor: "stride",
		LoadFailCauses: map[string]uint64{"miss": 1}, StoreFailCauses: map[string]uint64{"miss": 2}}
	r.ICache = &CacheRecord{Accesses: 3}
	r.DCache = &CacheRecord{Misses: 4}
	c := r.Clone()
	if !reflect.DeepEqual(r, c) {
		t.Fatalf("clone differs:\n%+v\nvs\n%+v", r, c)
	}
	var walk func(path string, a, b reflect.Value)
	walk = func(path string, a, b reflect.Value) {
		switch a.Kind() {
		case reflect.Pointer, reflect.Map:
			if a.IsNil() {
				t.Fatalf("%s is nil in the test record: fill it", path)
			}
			if a.UnsafePointer() == b.UnsafePointer() {
				t.Errorf("%s is shared with the clone", path)
			}
			if a.Kind() == reflect.Pointer {
				walk(path, a.Elem(), b.Elem())
			}
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
			}
		case reflect.Slice, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s, which Clone does not copy", path, a.Kind())
		}
	}
	walk("RunRecord", reflect.ValueOf(r), reflect.ValueOf(c))

	c.FAC.LoadFailCauses["miss"]++
	c.DCache.Misses++
	if r.FAC.LoadFailCauses["miss"] != 1 || r.DCache.Misses != 4 {
		t.Fatal("changing the clone changed the record")
	}
}

func TestDiffDetectsChangesAndMembership(t *testing.T) {
	oldRep := NewReport("t", "")
	newRep := NewReport("t", "")
	oldRep.Add(sampleRecord("same", "base", "m", 1000))
	newRep.Add(sampleRecord("same", "base", "m", 1000))
	oldRep.Add(sampleRecord("slow", "base", "m", 1000))
	newRep.Add(sampleRecord("slow", "base", "m", 1100)) // +10% cycles
	oldRep.Add(sampleRecord("gone", "base", "m", 10))
	newRep.Add(sampleRecord("new", "base", "m", 10))

	lines := Diff(oldRep, newRep, 0.01)
	keys := map[string]string{}
	for _, l := range lines {
		keys[l.Key+"/"+l.Field] = l.Field
	}
	if _, ok := keys["slow|base|m/cycles"]; !ok {
		t.Fatalf("missing cycles regression in %v", lines)
	}
	if _, ok := keys["new|base|m/added"]; !ok {
		t.Fatalf("missing added record in %v", lines)
	}
	if _, ok := keys["gone|base|m/removed"]; !ok {
		t.Fatalf("missing removed record in %v", lines)
	}
	for k := range keys {
		if k == "same|base|m/cycles" {
			t.Fatalf("unchanged record reported: %v", lines)
		}
	}
	if n := len(Diff(oldRep, oldRep, 0.01)); n != 0 {
		t.Fatalf("self-diff produced %d lines", n)
	}
}
