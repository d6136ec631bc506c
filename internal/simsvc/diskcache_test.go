package simsvc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testKey(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

func testRec(bench string, cycles uint64) obs.RunRecord {
	return obs.RunRecord{
		Schema:    obs.RunRecordSchema,
		Benchmark: bench,
		Toolchain: "base",
		Machine:   "base32",
		Cycles:    cycles,
		Insts:     cycles / 2,
		IPC:       0.5,
	}
}

// TestDiskCacheRoundtrip: Put then Get returns the identical record,
// and a fresh DiskCache over the same directory still sees it
// (persistence across processes).
func TestDiskCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(0)
	want := testRec("queens", 1234)
	if _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache hit")
	}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got.Benchmark != want.Benchmark || got.Cycles != want.Cycles {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	c2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("reopened cache missed a persisted entry")
	}
	st := c2.Stats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 entry 1 hit", st)
	}
}

// TestDiskCacheCorruptEntry: truncated or schema-mismatched entries are
// deleted and reported as misses, so the caller re-simulates and heals
// the cache. The handle that wrote an entry serves it from memory, so a
// file truncated behind it is found by the next handle that reads it.
func TestDiskCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := writer.Put(key, testRec("match", 99)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, key+".json")
	if err := os.WriteFile(p, []byte(`{"schema": "fac/run-rec`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not deleted")
	}
	st := c.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}

	// Wrong schema string is corruption too.
	bad := testRec("match", 99)
	bad.Schema = "fac/run-record/v0"
	if err := c.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("wrong-schema entry served as a hit")
	}

	// And the cache recovers: a fresh Put works again.
	if err := c.Put(key, testRec("match", 100)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := c.Get(key); !ok || rec.Cycles != 100 {
		t.Fatalf("recovered Get = %+v, %v", rec, ok)
	}
}

// TestDiskCacheLRUEviction: exceeding the size bound evicts the
// least-recently-used entries; a Get refreshes recency.
func TestDiskCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// First, measure one entry's size so the bound holds exactly three.
	probe, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(testKey(0), testRec("a", 1)); err != nil {
		t.Fatal(err)
	}
	st := probe.Stats()
	entrySize := st.Bytes
	if entrySize == 0 {
		t.Fatal("zero entry size")
	}
	os.Remove(filepath.Join(dir, testKey(0)+".json"))

	c, err := OpenDiskCache(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{testKey(0), testKey(1), testKey(2)}
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		if err := c.Put(k, testRec("a", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes so LRU order is unambiguous regardless of
		// filesystem timestamp granularity.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+".json"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry: a hit must refresh its recency.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("expected hit")
	}
	// A fourth entry overflows the bound; keys[1] is now least recent.
	if err := c.Put(testKey(3), testRec("a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[1]+".json")); !os.IsNotExist(err) {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], testKey(3)} {
		if _, err := os.Stat(filepath.Join(dir, k+".json")); err != nil {
			t.Fatalf("recently-used entry %s evicted: %v", k[:8], err)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestDiskCachePinnedSurvivesEviction: eviction under pressure never
// removes a pinned entry, however stale — the standard-grid results a
// warmed daemon depends on cannot be churned out by unrelated traffic.
func TestDiskCachePinnedSurvivesEviction(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(testKey(0), testRec("a", 1)); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes
	os.Remove(filepath.Join(dir, testKey(0)+".json"))

	c, err := OpenDiskCache(dir, 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	pinned := testKey(0)
	if err := c.Pin(pinned); err != nil {
		t.Fatal(err)
	}
	if err := c.Pin("../../etc/passwd"); err == nil {
		t.Fatal("hostile pin key accepted")
	}
	// The pinned entry is written first, then made the stalest on disk, so
	// pure LRU would evict it on every overflow below.
	if err := c.Put(pinned, testRec("pinned", 1)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, pinned+".json"), old, old); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := c.Put(testKey(byte(i)), testRec("churn", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(pinned); !ok {
		t.Fatal("pinned entry evicted under pressure")
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no eviction happened; the test exerted no pressure")
	}
	if st := c.Stats(); st.Pinned != 1 {
		t.Fatalf("stats report %d pinned entries, want 1", st.Pinned)
	}

	// Unpin re-exposes the entry to LRU pressure.
	c.Unpin(pinned)
	if err := c.Put(testKey(5), testRec("churn", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, pinned+".json")); !os.IsNotExist(err) {
		t.Fatal("unpinned stale entry survived eviction")
	}
}

// TestDiskCacheEvictionTiebreak: entries with identical mtimes (coarse
// filesystem timestamp granularity collapses distinct write times) are
// evicted in deterministic path order, not ReadDir directory order.
func TestDiskCacheEvictionTiebreak(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(testKey(0), testRec("a", 1)); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes
	os.Remove(filepath.Join(dir, testKey(0)+".json"))

	c, err := OpenDiskCache(dir, 4*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	// Four entries, all with the same mtime. testKey produces repeated
	// 'a'..'f' runs, so lexical order == key-byte order.
	keys := []string{testKey(3), testKey(1), testKey(2), testKey(0)}
	same := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range keys {
		if err := c.Put(k, testRec("a", 1)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, k+".json"), same, same); err != nil {
			t.Fatal(err)
		}
	}
	// One more entry overflows the bound by one: with every candidate's
	// mtime equal, exactly the lexically smallest path must be evicted.
	if err := c.Put(testKey(4), testRec("a", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(0)+".json")); !os.IsNotExist(err) {
		t.Fatal("tiebreak did not evict the lexically smallest same-mtime entry")
	}
	for _, k := range []string{testKey(1), testKey(2), testKey(3), testKey(4)} {
		if _, err := os.Stat(filepath.Join(dir, k+".json")); err != nil {
			t.Fatalf("entry %s... evicted out of tiebreak order: %v", k[:8], err)
		}
	}
}

// TestDiskCacheRejectsHostileKeys: keys that are not plain hex cannot
// escape the cache directory.
func TestDiskCacheRejectsHostileKeys(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", "../../../../etc/passwd12345678", strings.Repeat("z", 64), strings.Repeat("A", 64)} {
		if err := c.Put(k, testRec("x", 1)); err == nil {
			t.Fatalf("Put accepted hostile key %q", k)
		}
		if _, ok := c.Get(k); ok {
			t.Fatalf("Get accepted hostile key %q", k)
		}
	}
}

// TestDiskCacheSweepsTempFiles: leftover temp files from an interrupted
// writer, older than staleTempAge, are removed on open.
func TestDiskCacheSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "tmp-12345")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-staleTempAge - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived open")
	}
}

// TestDiskCacheKeepsFreshTempFiles: a temp file younger than staleTempAge
// may belong to another process's write in flight, so opening the cache
// leaves it, and that write's rename still lands.
func TestDiskCacheKeepsFreshTempFiles(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "tmp-67890")
	if err := os.WriteFile(live, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(live, filepath.Join(dir, testKey(0)+".json")); err != nil {
		t.Fatalf("a live writer's temp file was swept: %v", err)
	}
}
