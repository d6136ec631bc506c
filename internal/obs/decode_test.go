package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// mirrorHist, mirrorCache and mirrorRecord are RunRecord's types without
// its decoder: encoding/json decodes them by reflection. A histogram's
// buckets are a slice, so the mirror keeps a bucket past HistBuckets.
type mirrorHist struct {
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
}

type mirrorCache struct {
	Accesses    uint64     `json:"accesses"`
	Misses      uint64     `json:"misses"`
	DelayedHits uint64     `json:"delayed_hits"`
	Evictions   uint64     `json:"evictions"`
	Writebacks  uint64     `json:"writebacks"`
	MSHROcc     mirrorHist `json:"mshr_occupancy"`
}

type mirrorRecord struct {
	Schema            string         `json:"schema"`
	Benchmark         string         `json:"benchmark"`
	Class             string         `json:"class"`
	Toolchain         string         `json:"toolchain"`
	Machine           string         `json:"machine"`
	Cycles            uint64         `json:"cycles"`
	Insts             uint64         `json:"instructions"`
	IPC               float64        `json:"ipc"`
	Loads             uint64         `json:"loads"`
	Stores            uint64         `json:"stores"`
	IssueActiveCycles uint64         `json:"issue_active_cycles"`
	StallCyclesTotal  uint64         `json:"stall_cycles_total"`
	Stalls            StallBreakdown `json:"stall_cycles"`
	BranchLookups     uint64         `json:"branch_lookups"`
	BranchMispredicts uint64         `json:"branch_mispredicts"`
	StoreBufFull      uint64         `json:"store_buffer_full_stalls"`
	LoadLatency       mirrorHist     `json:"load_latency"`
	FAC               *FACRecord     `json:"fac"`
	ICache            *mirrorCache   `json:"icache"`
	DCache            *mirrorCache   `json:"dcache"`
}

type mirrorAnswer struct {
	CacheHit bool         `json:"cache_hit"`
	Record   mirrorRecord `json:"record"`
}

func (h mirrorHist) hist(t *testing.T) Hist {
	if len(h.Buckets) > HistBuckets {
		t.Fatalf("encoding/json read %d buckets, the reader accepted them", len(h.Buckets))
	}
	out := Hist{Count: h.Count, Sum: h.Sum, Max: h.Max}
	copy(out.Buckets[:], h.Buckets)
	return out
}

func (c *mirrorCache) cache(t *testing.T) *CacheRecord {
	if c == nil {
		return nil
	}
	return &CacheRecord{Accesses: c.Accesses, Misses: c.Misses, DelayedHits: c.DelayedHits,
		Evictions: c.Evictions, Writebacks: c.Writebacks, MSHROcc: c.MSHROcc.hist(t)}
}

func (m mirrorRecord) record(t *testing.T) RunRecord {
	return RunRecord{
		Schema: m.Schema, Benchmark: m.Benchmark, Class: m.Class, Toolchain: m.Toolchain, Machine: m.Machine,
		Cycles: m.Cycles, Insts: m.Insts, IPC: m.IPC, Loads: m.Loads, Stores: m.Stores,
		IssueActiveCycles: m.IssueActiveCycles, StallCyclesTotal: m.StallCyclesTotal, Stalls: m.Stalls,
		BranchLookups: m.BranchLookups, BranchMispredicts: m.BranchMispredicts, StoreBufFull: m.StoreBufFull,
		LoadLatency: m.LoadLatency.hist(t), FAC: m.FAC, ICache: m.ICache.cache(t), DCache: m.DCache.cache(t),
	}
}

// answerJSON is facd's encoding of a POST /v1/run answer: indented, with
// a trailing newline.
func answerJSON(a RunAnswer) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(a)
	return b.Bytes(), err
}

// fillEvery sets every field v holds, at any depth, to a value of its
// own: a pointer to a filled value, a map of one entry, a distinct
// number or string.
func fillEvery(t *testing.T, v reflect.Value, n *uint64) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEvery(t, v.Elem(), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf(fmt.Sprint("k", *n)), reflect.ValueOf(*n))
	case reflect.Struct:
		for i := range v.NumField() {
			fillEvery(t, v.Field(i), n)
		}
	case reflect.Array:
		for i := range v.Len() {
			fillEvery(t, v.Index(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Uint64:
		v.SetUint(*n)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillEvery: a %s field: teach the test and the reader its kind", v.Kind())
	}
}

// TestRunAnswerDecodesEveryField: an answer whose every field, at any
// depth, holds a value of its own decodes back to itself from its
// encoding and from the same keys in another order. A field added to
// RunRecord fails here until the reader reads it.
func TestRunAnswerDecodesEveryField(t *testing.T) {
	var want RunAnswer
	var n uint64
	fillEvery(t, reflect.ValueOf(&want).Elem(), &n)
	data, err := answerJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(keys["record"], &rec); err != nil {
		t.Fatal(err)
	}
	// A map marshals its keys sorted, unlike the struct's field order.
	sorted, err := json.Marshal(map[string]any{"record": rec, "cache_hit": true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{data, sorted} {
		var got RunAnswer
		if err := got.UnmarshalJSON(in); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
		}
	}
}

// TestRunRecordDecodeRejects: each input encoding/json reads leniently,
// or not at all, is an error, and a record with none of them decodes.
func TestRunRecordDecodeRejects(t *testing.T) {
	good := `{"schema":"fac/run-record/v1","cycles":5,"ipc":1e-7,"load_latency":{"buckets":[0,1],"count":1,"sum":1,"max":1}}`
	var r RunRecord
	if err := r.UnmarshalJSON([]byte(good)); err != nil || r.Cycles != 5 || r.IPC != 1e-7 || r.LoadLatency.Buckets[1] != 1 {
		t.Fatalf("%s: %+v, %v", good, r, err)
	}
	for _, bad := range []string{
		``,
		`null`,
		`{"cycles":5,"speed":1}`,
		`{"Cycles":5}`,
		`{"cycles":5,"cycles":6}`,
		`{"fac":{"load_fail_causes":{"a":1,"a":2}}}`,
		`{"fac":null}`,
		`{"fac":{"load_fail_causes":null}}`,
		`{"load_latency":{"buckets":[` + strings.Repeat("1,", HistBuckets) + `1]}}`,
		`{"load_latency":{"buckets":null}}`,
		`{"cycles":5} {}`,
		`{"cycles":5}}`,
		`{"cycles":5,}`,
		`{"cycles":18446744073709551616}`,
		`{"cycles":-1}`,
		`{"cycles":1e3}`,
		`{"cycles":1.0}`,
		`{"cycles":01}`,
		`{"cycles":"5"}`,
		`{"ipc":01}`,
		`{"ipc":.5}`,
		`{"ipc":1.}`,
		`{"ipc":1e}`,
		`{"ipc":1e400}`,
		`{"ipc":null}`,
		`{"benchmark":"a\qb"}`,
		`{"benchmark":"ab`,
		`{"benchmark":"a` + "\n" + `b"}`,
		`{"benchmark":null}`,
	} {
		if err := r.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s: decoded %+v, want an error", bad, r)
		}
	}
	var a RunAnswer
	for _, bad := range []string{
		`{"cache_hit":1}`,
		`{"cache_hit":tru}`,
		`{"cache_hit":null}`,
		`{"cache_hit":true,"record":null}`,
		`{"cache_hit":true,"Record":{}}`,
		`{"cache_hit":true,"worker":"w1"}`,
	} {
		if err := a.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s: decoded %+v, want an error", bad, a)
		}
	}
}

// FuzzRunRecord: the reader is the only decoder of a record, so it must
// never disagree with encoding/json. Whatever bytes it accepts as a
// record or as an answer, encoding/json decodes into a method-free
// mirror without error and to an equal value. A record built from the
// fuzzed string, count and IPC decodes back to itself from json.Marshal,
// json.MarshalIndent and facd's answer encoding. The seeds hold
// BENCH_pipeline.json's records, hashp answers and records of base32,
// fac32 and stride (whose fail causes are maps), records without a fac
// or an icache section, 17 and 33 histogram buckets, an escaped string,
// a case-variant key, a null, a duplicate key, trailing data, 2^64 and
// 1e3 in a count, 01, and 1e-7 in ipc.
func FuzzRunRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, s string, n uint64, ipc float64) {
		var r RunRecord
		if r.UnmarshalJSON(data) == nil {
			var m mirrorRecord
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatalf("the reader accepted %q, encoding/json: %v", data, err)
			}
			if want := m.record(t); !reflect.DeepEqual(r, want) {
				t.Fatalf("%q: the reader read\n%+v\nencoding/json\n%+v", data, r, want)
			}
		}
		var a RunAnswer
		if a.UnmarshalJSON(data) == nil {
			var m mirrorAnswer
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatalf("the reader accepted the answer %q, encoding/json: %v", data, err)
			}
			if want := (RunAnswer{m.CacheHit, m.Record.record(t)}); !reflect.DeepEqual(a, want) {
				t.Fatalf("%q: the reader read\n%+v\nencoding/json\n%+v", data, a, want)
			}
		}

		// encoding/json writes invalid UTF-8 as U+FFFD and refuses NaN
		// and infinities.
		s = strings.ToValidUTF8(s, "\uFFFD")
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			ipc = 0
		}
		rec := RunRecord{Schema: RunRecordSchema, Benchmark: s, Class: s, Toolchain: "base", Machine: s,
			Cycles: n, Insts: n / 3, IPC: ipc, StallCyclesTotal: n, Stalls: StallBreakdown{Drain: n}}
		rec.LoadLatency.Buckets[n%HistBuckets] = n
		rec.LoadLatency.Count, rec.LoadLatency.Max = n, n%HistBuckets
		switch n % 3 {
		case 1:
			rec.FAC = &FACRecord{LoadFails: n, StoreFailKinds: FailureBreakdown{NegIndexReg: n}}
			rec.DCache = &CacheRecord{Misses: n, MSHROcc: Hist{Buckets: [HistBuckets]uint64{n}, Max: n}}
		case 2:
			rec.FAC = &FACRecord{Predictor: s, LoadsNoPredict: n, LoadFailCauses: map[string]uint64{s: n},
				StoreFailCauses: map[string]uint64{"lastaddr": n, s + "x": 1}}
			rec.ICache = &CacheRecord{Accesses: n}
		}
		compact, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{compact, indented} {
			var got RunRecord
			if err := got.UnmarshalJSON(in); err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("%s decoded to\n%+v, %v\nwant\n%+v", in, got, err, rec)
			}
		}
		want := RunAnswer{CacheHit: n%2 == 1, Record: rec}
		ans, err := answerJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		var got RunAnswer
		if err := got.UnmarshalJSON(ans); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decoded to\n%+v, %v\nwant\n%+v", ans, got, err, want)
		}
	})
}

// BenchmarkDecodeRunRecord decodes the hashp answers of base32, fac32
// and stride, as facd writes them to a cache hit, one answer per op.
func BenchmarkDecodeRunRecord(b *testing.B) {
	for _, m := range []string{"base32", "fac32", "stride"} {
		data, err := os.ReadFile("testdata/answers/hashp-" + m + ".json")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			var a RunAnswer
			for i := 0; i < b.N; i++ {
				if err := a.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
