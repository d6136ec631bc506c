package simsvc

import (
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
type DiskCache struct {
	dir      string
	maxBytes int64

	mu        sync.Mutex
	pinned    map[string]bool // entry paths exempt from eviction
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

// OpenDiskCache opens (creating if needed) a cache directory. maxBytes
// bounds the total size of stored entries (0 = unbounded). Leftover
// temporary files from an interrupted writer are swept.
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
		if strings.HasPrefix(e.Name(), "tmp-") {
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
func (c *DiskCache) Get(key string) (obs.RunRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.path(key)
	if err != nil {
		c.misses++
		return obs.RunRecord{}, false
	}
	data, err := os.ReadFile(p)
	if err != nil {
		c.misses++
		return obs.RunRecord{}, false
	}
	var rec obs.RunRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Schema != obs.RunRecordSchema {
		c.corrupt++
		c.misses++
		os.Remove(p)
		return obs.RunRecord{}, false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // refresh LRU recency; best effort
	c.hits++
	return rec, true
}

// Put stores rec under key atomically, then evicts least-recently-used
// entries while the cache exceeds its size bound.
func (c *DiskCache) Put(key string, rec obs.RunRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.path(key)
	if err != nil {
		return err
	}
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
// is pinned, the cache is allowed to exceed its bound.
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
