package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// testMachine resolves the three machines of perfbench's grid the way
// experiments.MachineConfig does; this package cannot import experiments.
func testMachine(m string) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	switch m {
	case "base32":
	case "fac32":
		cfg.Predictor = "fac"
	case "stride":
		cfg.Predictor = "stride"
	default:
		return cfg, fmt.Errorf("unknown machine %q", m)
	}
	return cfg, nil
}

// hexKey is a distinct cache key for each i.
func hexKey(i int) string { return fmt.Sprintf("%064x", i) }

// entrySize is the file size of a stored testRec with a two-digit cycle
// count.
func entrySize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(hexKey(0), testRec("a", 10)); err != nil {
		t.Fatal(err)
	}
	return c.Stats().Bytes
}

// residentPaths lists the entry files resident in c, most recently hit
// first, after checking the set's accounting.
func residentPaths(t *testing.T, c *DiskCache) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*residentEntry)
		if c.resident[e.path] != e {
			t.Fatalf("%s is in the LRU list but not the map", e.path)
		}
		keys = append(keys, filepath.Base(e.path))
		sum += e.size
	}
	if len(keys) != len(c.resident) || sum != c.residentBytes {
		t.Fatalf("%d listed entries of %d bytes; the map holds %d, the count says %d bytes",
			len(keys), sum, len(c.resident), c.residentBytes)
	}
	if sum > c.residentLimit() {
		t.Fatalf("resident set holds %d bytes, bound %d", sum, c.residentLimit())
	}
	return keys
}

// TestResidentRemovedFileMisses: a file removed behind the handle's back,
// as another process's eviction removes it, makes the next probe a miss,
// and the run simulates again and stores its record afresh.
func TestResidentRemovedFileMisses(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Resolve: testMachine, Cache: cache}
	spec := JobSpec{Workload: "hashp", Toolchain: "base", Machine: "base32"}
	key, err := r.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, wantHit := range []bool{false, true} {
		if out, err := r.Run(ctx, spec); err != nil || out.CacheHit != wantHit {
			t.Fatalf("run %d: cache_hit %v, err %v; want %v", i, out.CacheHit, err, wantHit)
		}
	}
	p := filepath.Join(dir, key+".json")
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("Get served a record whose file is gone")
	}
	out, err := r.Run(ctx, spec)
	if err != nil || out.CacheHit {
		t.Fatalf("run after removal: cache_hit %v, err %v; want a simulation", out.CacheHit, err)
	}
	if n := r.Counts().Simulated; n != 2 {
		t.Fatalf("simulated %d runs, want 2", n)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("the re-simulated record was not stored: %v", err)
	}
}

// TestResidentEvictedEntryLeaves: an entry this handle evicts leaves its
// resident set, though the set has room for it: the directory also holds
// another process's entry. That process then writes the evicted key
// again, and the handle serves the new file's record, not the evicted one.
func TestResidentEvictedEntryLeaves(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskCache(dir, 2*entrySize(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(hexKey(0), testRec("a", 10)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, hexKey(0)+".json"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(hexKey(1), testRec("a", 11)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(hexKey(2), testRec("a", 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, hexKey(0)+".json")); !os.IsNotExist(err) {
		t.Fatal("the stalest entry was not evicted")
	}
	if err := b.Put(hexKey(0), testRec("a", 13)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := a.Get(hexKey(0)); !ok || rec.Cycles != 13 {
		t.Fatalf("Get = %d cycles, %v; want the rewritten record's 13", rec.Cycles, ok)
	}
}

// TestResidentCorruptEntryLeaves: an entry this handle removes as corrupt
// (here, another run's record under the key) leaves its resident set. The
// right record, written again by another process, is then served.
func TestResidentCorruptEntryLeaves(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, want := hexKey(1), "hashp|base|base32"
	if err := a.Put(key, testRec("dct", 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.get(key, want); ok {
		t.Fatal("served the record of dct|base|base32 for " + want)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Fatal("the wrong record's file was not removed")
	}
	if st := a.Stats(); st.Corrupt != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt and no hit", st)
	}
	b, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, testRec("hashp", 11)); err != nil {
		t.Fatal(err)
	}
	if rec, _, ok := a.get(key, want); !ok || rec.Cycles != 11 {
		t.Fatalf("get = %+v, %v; want the rewritten hashp record", rec, ok)
	}
}

// TestResidentFailedPutServesNothing: a Put that fails, here because the
// cache directory became a file, leaves no record of the key in memory:
// neither the one it failed to write nor the one written before it. Once
// another process writes the key, the handle serves that file's record.
func TestResidentFailedPutServesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	a, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(2)
	if err := a.Put(key, testRec("a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(key, testRec("a", 11)); err == nil {
		t.Fatal("Put into a directory that is a file succeeded")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, testRec("a", 12)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := a.Get(key); !ok || rec.Cycles != 12 {
		t.Fatalf("Get = %d cycles, %v; want the file's record, 12 cycles", rec.Cycles, ok)
	}
}

// stridedRec is a record with every section a simulated stride run has:
// FAC counters and fail-cause maps, and both cache sections.
func stridedRec() obs.RunRecord {
	rec := testRec("hashp", 10)
	rec.Machine = "stride"
	rec.LoadLatency.Add(3)
	rec.FAC = &obs.FACRecord{LoadsSpeculated: 9, LoadFails: 2, Predictor: "stride",
		LoadFailCauses: map[string]uint64{"miss": 2}, StoreFailCauses: map[string]uint64{"miss": 1}}
	rec.ICache = &obs.CacheRecord{Accesses: 20}
	rec.DCache = &obs.CacheRecord{Accesses: 9, Misses: 1}
	return rec
}

// TestResidentRecordIsCopy: the record Put stores and every record a hit
// returns are copies, so changing any of them, FAC maps and cache
// sections included, does not change the next hit, whether that entry
// came from a Put or from reading the file.
func TestResidentRecordIsCopy(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(3)
	put := stridedRec()
	if err := writer.Put(key, put); err != nil {
		t.Fatal(err)
	}
	put.FAC.LoadFailCauses["miss"]++
	put.DCache.Misses++
	for _, c := range []*DiskCache{writer, reader} {
		for i := 0; i < 3; i++ {
			rec, ok := c.Get(key)
			if !ok || !reflect.DeepEqual(rec, stridedRec()) {
				t.Fatalf("hit %d = %+v, %v; want the stored record", i, rec, ok)
			}
			rec.FAC.LoadFailCauses["miss"]++
			rec.FAC.StoreFailCauses["other"] = 1
			rec.FAC.LoadFails++
			rec.ICache.Accesses++
			rec.DCache.MSHROcc.Add(1)
		}
	}
}

// TestResidentBound: a handle reading more entries than its bound holds
// keeps the most recently hit ones that fit, and a hit on an entry keeps
// it over the others. The bound is maxBytes, or residentBudget when the
// cache is unbounded or bounded above it.
func TestResidentBound(t *testing.T) {
	dir := t.TempDir()
	size := entrySize(t)
	writer, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := writer.Put(hexKey(i), testRec("a", uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(residentPaths(t, writer)); n != 10 {
		t.Fatalf("an unbounded handle keeps %d of the 10 records it wrote", n)
	}
	a, err := OpenDiskCache(dir, 3*size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if rec, ok := a.Get(hexKey(i)); !ok || rec.Cycles != uint64(10+i) {
			t.Fatalf("Get %d = %+v, %v", i, rec, ok)
		}
		residentPaths(t, a)
	}
	// A hit on 7 makes 8 the least recently hit, so reading 0 drops it.
	a.Get(hexKey(7))
	a.Get(hexKey(0))
	got := residentPaths(t, a)
	want := []string{hexKey(0) + ".json", hexKey(7) + ".json", hexKey(9) + ".json"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resident, most recent first: %q, want %q", got, want)
	}
	if st := a.Stats(); st.Entries != 10 || st.Evictions != 0 {
		t.Fatalf("the resident bound touched the directory: %+v", st)
	}
	for _, maxBytes := range []int64{0, 2 * residentBudget} {
		c, err := OpenDiskCache(dir, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.residentLimit(); got != residentBudget {
			t.Fatalf("maxBytes %d: resident bound %d, want %d", maxBytes, got, residentBudget)
		}
	}
}

// TestResidentConcurrent: Get, the key-checked get and its stored answer,
// Put, Pin, Stats and the eviction Put drives, called from several
// goroutines on one handle. Run under -race. The set's accounting holds
// afterwards, and every resident entry's file exists.
func TestResidentConcurrent(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 4*entrySize(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := hexKey((g*7 + i) % 12)
				switch i % 5 {
				case 0:
					if err := c.Put(k, testRec("a", uint64(10+i%90))); err != nil {
						t.Error(err)
					}
				case 1:
					c.Get(k)
				case 2:
					if _, e, ok := c.get(k, "a|base|base32"); ok && len(e.hitAnswer()) == 0 {
						t.Error("empty stored answer")
					}
				case 3:
					if err := c.Pin(hexKey(g)); err != nil {
						t.Error(err)
					}
				case 4:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, name := range residentPaths(t, c) {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("resident entry without a file: %v", err)
		}
	}
}

// TestRunAnswerBytes: POST /v1/run answers a miss, the first hit, a later
// hit, and a hit through a second handle that reads the file, with the
// bytes writeJSON encodes for {"cache_hit", "record"}, where record is
// the run's record from a Runner with no cache. It covers a fac32 record
// and a stride record, whose fail causes are maps.
func TestRunAnswerBytes(t *testing.T) {
	dir := t.TempDir()
	serve := func() http.Handler {
		cache, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(ServerConfig{Workers: 1}, &Runner{Resolve: testMachine, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(func() { s.Drain(context.Background()) })
		return s.Handler()
	}
	h := serve()
	for _, machine := range []string{"fac32", "stride"} {
		spec := JobSpec{Workload: "hashp", Toolchain: "base", Machine: machine}
		ref, err := (&Runner{Resolve: testMachine}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if machine == "stride" && (ref.Rec.FAC == nil || len(ref.Rec.FAC.LoadFailCauses) == 0) {
			t.Fatalf("the stride record has no load fail causes: %+v", ref.Rec.FAC)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range []struct {
			h   http.Handler
			hit bool
		}{{h, false}, {h, true}, {h, true}, {serve(), true}} {
			got := httptest.NewRecorder()
			step.h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, map[string]any{"cache_hit": step.hit, "record": ref.Rec})
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s answer %d: status %d\n%s\nwant\n%s", machine, i, got.Code, got.Body, want.Body)
			}
			if ct := got.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s answer %d: Content-Type %q", machine, i, ct)
			}
		}
	}
}

// TestClientReadsRunAnswers: Client.RunSync decodes each answer
// TestRunAnswerBytes pins (a miss, the first hit, a later hit, and a hit
// through a second handle that reads the file) of a fac32 and a stride
// record into the record the server ran: nil sections stay nil, and the
// fail-cause maps and histogram buckets match.
func TestClientReadsRunAnswers(t *testing.T) {
	dir := t.TempDir()
	serve := func() *Client {
		cache, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, base := newTestServer(t, ServerConfig{Workers: 1}, &Runner{Resolve: testMachine, Cache: cache})
		return &Client{Base: base}
	}
	c := serve()
	for _, machine := range []string{"fac32", "stride"} {
		spec := JobSpec{Workload: "hashp", Toolchain: "base", Machine: machine}
		ref, err := (&Runner{Resolve: testMachine}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Rec.ICache == nil || ref.Rec.DCache == nil || ref.Rec.FAC == nil ||
			machine == "stride" && len(ref.Rec.FAC.LoadFailCauses) == 0 {
			t.Fatalf("the %s record lacks a section the test reads: %+v", machine, ref.Rec)
		}
		for i, step := range []struct {
			c   *Client
			hit bool
		}{{c, false}, {c, true}, {c, true}, {serve(), true}} {
			rec, hit, err := step.c.RunSync(context.Background(), spec)
			if err != nil || hit != step.hit || !reflect.DeepEqual(rec, ref.Rec) {
				t.Fatalf("%s answer %d: hit %v, err %v\n%+v\nwant hit %v\n%+v", machine, i, hit, err, rec, step.hit, ref.Rec)
			}
		}
	}
}

// TestRunnerChecksCachedKey: an entry that holds another run's record
// under a spec's key, as a hand edit or a file copied from another
// directory leaves it, is not served. Run deletes it, counts it corrupt,
// simulates, and leaves the spec's own record in the file.
func TestRunnerChecksCachedKey(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Workload: "hashp", Toolchain: "base", Machine: "base32"}
	writer, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Resolve: testMachine, Cache: cache}
	key, err := r.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(key, testRec("dct", 10)); err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit || out.Rec.Key() != spec.String() {
		t.Fatalf("Run served cache_hit %v, record %s for %s", out.CacheHit, out.Rec.Key(), spec)
	}
	if st := cache.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var stored obs.RunRecord
	if err := json.Unmarshal(data, &stored); err != nil || stored.Key() != spec.String() {
		t.Fatalf("the file holds %s (%v), want %s", stored.Key(), err, spec)
	}
}
