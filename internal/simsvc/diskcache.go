package simsvc

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DiskCache is the persistent, content-addressed result cache: one JSON
// file per RunRecord under a directory, named by the run's cache key
// (see CacheKey). Writes are atomic (temp file + rename), loads are
// corruption-safe (an unreadable or schema-mismatched entry is deleted
// and treated as a miss), and the total size is LRU-bounded: every hit
// refreshes the entry's modification time and Put evicts the stalest
// entries once the directory exceeds MaxBytes.
//
// The same directory can be shared by cmd/facd and cmd/experiments
// -cache (even concurrently: the rename makes readers see only complete
// entries), so a table regenerated after a daemon batch — or vice versa —
// skips every already-simulated run.
//
// A handle also keeps the entries it reads or writes in memory, its
// resident set, so a hit on one of them reads no file and decodes no
// JSON. Such a hit still touches the entry's file, which refreshes the
// recency other processes evict by and proves the file still exists; a
// file that is gone makes the hit a miss. The file's bytes are not
// re-read, so a file corrupted after this handle loaded it is found by
// the next process that reads it.
type DiskCache struct {
	dir      string
	maxBytes int64

	mu     sync.Mutex
	pinned map[string]bool // entry paths exempt from eviction
	// resident maps an entry path to its record in memory; lru orders the
	// entries, most recently hit at the front, and residentBytes sums
	// their file sizes (see residentLimit).
	resident      map[string]*residentEntry
	lru           list.List
	residentBytes int64

	hits      uint64
	misses    uint64
	evictions uint64
	corrupt   uint64
}

// DiskCacheStats is a point-in-time snapshot for /metrics.
type DiskCacheStats struct {
	Dir       string `json:"dir"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Pinned    int    `json:"pinned,omitempty"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Corrupt   uint64 `json:"corrupt"`
}

// HitRate returns hits/(hits+misses).
func (s DiskCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// residentBudget bounds a handle's resident set, in bytes of the entry
// files it holds: about 2,500 records of 1.3 to 2.0 KB, over four times
// the runs of a full table regeneration.
const residentBudget = 4 << 20

// staleTempAge is the age past which a temporary file is abandoned: a
// write holds its temp file for milliseconds, and another process's write
// to a shared directory may be in flight while a handle opens.
const staleTempAge = 10 * time.Minute

// residentEntry is one record of the resident set. rec never changes
// once the entry is made (callers get copies); elem is guarded by the
// cache's mutex.
type residentEntry struct {
	path string
	rec  obs.RunRecord
	size int64         // the entry file's size
	elem *list.Element // the entry's place in lru

	answerOnce sync.Once
	answer     []byte
}

// hitAnswer is the exact body of the POST /v1/run answer to a hit on e,
// encoded by the first call.
func (e *residentEntry) hitAnswer() []byte {
	e.answerOnce.Do(func() {
		var b bytes.Buffer
		encodeJSON(&b, obs.RunAnswer{CacheHit: true, Record: e.rec})
		e.answer = b.Bytes()
	})
	return e.answer
}

// OpenDiskCache opens (creating if needed) a cache directory. maxBytes
// bounds the total size of stored entries (0 = unbounded). Temporary
// files older than staleTempAge, left by an interrupted writer, are
// swept.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("simsvc: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simsvc: open cache: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("simsvc: open cache: %w", err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "tmp-") {
			continue
		}
		if fi, err := e.Info(); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &DiskCache{dir: dir, maxBytes: maxBytes}, nil
}

// Pin exempts the given keys from LRU eviction: evictLocked never
// removes a pinned entry, however stale its mtime, so the standard-grid
// results a warmed daemon depends on cannot be churned out by unrelated
// traffic. Pinning is a property of this process's cache handle, not of
// the directory: a fresh DiskCache over the same directory starts with
// nothing pinned. Pinning a key does not require the entry to exist yet —
// the exemption applies once it is written.
func (c *DiskCache) Pin(keys ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		p, err := c.path(key)
		if err != nil {
			return err
		}
		if c.pinned == nil {
			c.pinned = make(map[string]bool)
		}
		c.pinned[p] = true
	}
	return nil
}

// Unpin removes keys from the pinned set (unknown keys are ignored).
func (c *DiskCache) Unpin(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		if p, err := c.path(key); err == nil {
			delete(c.pinned, p)
		}
	}
}

// path maps a key to its entry file, rejecting anything that is not a
// plain lowercase-hex key (defense against path escapes from a corrupted
// caller).
func (c *DiskCache) path(key string) (string, error) {
	if len(key) < 16 || len(key) > 128 {
		return "", fmt.Errorf("simsvc: malformed cache key %q", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", fmt.Errorf("simsvc: malformed cache key %q", key)
		}
	}
	return filepath.Join(c.dir, key+".json"), nil
}

// Get loads the record stored under key. A missing entry is a miss; a
// corrupt entry (unparseable JSON, wrong schema) is deleted and counted,
// then reported as a miss so the caller re-simulates and overwrites it.
// The record returned is the caller's own copy.
func (c *DiskCache) Get(key string) (obs.RunRecord, bool) {
	rec, _, ok := c.get(key, "")
	return rec, ok
}

// get is Get for a run whose record must carry the key want
// (benchmark|toolchain|machine; "" checks none): an entry holding another
// run's record is corrupt. A hit also returns the entry that served it,
// whose hitAnswer POST /v1/run writes.
func (c *DiskCache) get(key, want string) (obs.RunRecord, *residentEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.path(key)
	if err != nil {
		c.misses++
		return obs.RunRecord{}, nil, false
	}
	// Touching the file refreshes its LRU recency and proves it exists.
	now := time.Now()
	e := c.resident[p]
	if e != nil && os.Chtimes(p, now, now) != nil {
		c.dropLocked(p)
		e = nil
	}
	fresh := e == nil
	if fresh {
		data, err := os.ReadFile(p)
		if err != nil {
			c.misses++
			return obs.RunRecord{}, nil, false
		}
		e = &residentEntry{path: p, size: int64(len(data))}
		if err := e.rec.UnmarshalJSON(data); err != nil {
			c.corruptLocked(e)
			return obs.RunRecord{}, nil, false
		}
	}
	if e.rec.Schema != obs.RunRecordSchema || want != "" && e.rec.Key() != want {
		c.corruptLocked(e)
		return obs.RunRecord{}, nil, false
	}
	switch {
	case !fresh:
		c.lru.MoveToFront(e.elem)
	case os.Chtimes(p, now, now) == nil:
		c.keepLocked(e)
	}
	c.hits++
	return e.rec.Clone(), e, true
}

// corruptLocked deletes a corrupt entry and counts the miss.
func (c *DiskCache) corruptLocked(e *residentEntry) {
	c.dropLocked(e.path)
	os.Remove(e.path)
	c.corrupt++
	c.misses++
}

// residentLimit is the resident set's bound: maxBytes, up to
// residentBudget.
func (c *DiskCache) residentLimit() int64 {
	if c.maxBytes > 0 && c.maxBytes < residentBudget {
		return c.maxBytes
	}
	return residentBudget
}

// keepLocked makes e the resident entry of its path, then drops the least
// recently hit entries until the set fits its bound. An entry larger than
// the whole bound is not kept.
func (c *DiskCache) keepLocked(e *residentEntry) {
	c.dropLocked(e.path)
	limit := c.residentLimit()
	if e.size > limit {
		return
	}
	if c.resident == nil {
		c.resident = make(map[string]*residentEntry)
	}
	e.elem = c.lru.PushFront(e)
	c.resident[e.path] = e
	c.residentBytes += e.size
	for c.residentBytes > limit {
		c.dropLocked(c.lru.Back().Value.(*residentEntry).path)
	}
}

// dropLocked takes the entry of path out of the resident set, if it is
// there.
func (c *DiskCache) dropLocked(path string) {
	e := c.resident[path]
	if e == nil {
		return
	}
	c.lru.Remove(e.elem)
	delete(c.resident, path)
	c.residentBytes -= e.size
}

// Put stores a copy of rec under key atomically, then evicts
// least-recently-used entries while the cache exceeds its size bound. A
// failed Put leaves the key with no resident record.
func (c *DiskCache) Put(key string, rec obs.RunRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.path(key)
	if err != nil {
		return err
	}
	c.dropLocked(p)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("simsvc: encode cache entry: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("simsvc: write cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("simsvc: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simsvc: write cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simsvc: write cache entry: %w", err)
	}
	c.keepLocked(&residentEntry{path: p, rec: rec.Clone(), size: int64(len(data))})
	c.evictLocked(p)
	return nil
}

// entryInfo is one stored entry during an eviction scan.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// evictLocked removes the least-recently-used entries until the cache
// fits its bound again. The just-written entry (keep) is never evicted,
// so a single oversized result cannot churn itself out of the cache, and
// pinned entries (see Pin) are exempt entirely. If everything remaining
// is pinned, the cache is allowed to exceed its bound. An evicted entry
// leaves the resident set too.
//
// Recency is mtime order. On filesystems with coarse timestamp
// granularity, entries touched within the same tick compare equal, so
// ordering on mtime alone would leave the victim choice to ReadDir's
// directory order; the path tiebreak below pins a deterministic total
// order (regression-tested in TestDiskCacheEvictionTiebreak).
func (c *DiskCache) evictLocked(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	entries, total := c.scanLocked()
	if total <= c.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if e.path == keep || c.pinned[e.path] {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			c.evictions++
			c.dropLocked(e.path)
		}
	}
}

// scanLocked lists the stored entries and their total size.
func (c *DiskCache) scanLocked() ([]entryInfo, int64) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, 0
	}
	var out []entryInfo
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, entryInfo{
			path:  filepath.Join(c.dir, de.Name()),
			size:  fi.Size(),
			mtime: fi.ModTime(),
		})
		total += fi.Size()
	}
	return out, total
}

// Stats snapshots the cache counters and current occupancy.
func (c *DiskCache) Stats() DiskCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries, total := c.scanLocked()
	return DiskCacheStats{
		Dir:       c.dir,
		Entries:   len(entries),
		Bytes:     total,
		MaxBytes:  c.maxBytes,
		Pinned:    len(c.pinned),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Corrupt:   c.corrupt,
	}
}
