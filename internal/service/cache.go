package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// resultCache is the determinism-backed result store: an in-memory LRU over
// point keys with optional disk persistence. Because every simulation here is
// bit-identical given (canonical config, pattern, load, warmup, measure) and
// the key folds in the engine digest, an entry can never be wrong — only
// absent — so the cache needs no TTLs and no revalidation, just capacity
// management.
//
// The disk layer reuses the warm-snapshot cache's layout: one file per entry,
// written to a temp file and atomically renamed, so concurrent writers (or a
// crash mid-write) never leave a half-written entry visible. Each file embeds
// the engine digest that computed it; a load by a build with different
// physics is refused even if the file name were forged, which is the second
// line of defense after the digest-bearing key itself.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element

	dir    string // "" = memory only
	digest uint64 // this build's engine digest; disk entries must match

	diskWriteErrors atomic.Int64 // persists that failed (served from memory only)
}

type cacheEntry struct {
	key  uint64
	data []byte
}

// diskResult is the persisted envelope of one cached point result.
type diskResult struct {
	Key    string          `json:"key"`
	Digest string          `json:"digest"` // engine digest that computed Result
	Result json.RawMessage `json:"result"`
}

func newResultCache(capacity int, dir string, digest uint64) (*resultCache, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: result cache dir: %w", err)
		}
	}
	return &resultCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[uint64]*list.Element),
		dir:    dir,
		digest: digest,
	}, nil
}

// Get returns the cached result bytes for key, promoting the entry to
// most-recently-used. On a memory miss with a disk layer configured, it
// faults the entry in from disk (verifying the recorded engine digest); an
// entry evicted from the LRU therefore remains servable as long as its file
// survives.
func (c *resultCache) Get(key uint64) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		data := e.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	data, ok := c.loadDisk(key)
	if !ok {
		return nil, false
	}
	c.add(key, data, false) // already on disk; do not rewrite
	return data, true
}

// Has reports whether Get would hit without promoting or faulting in — the
// cheap probe the admission path uses.
func (c *resultCache) Has(key uint64) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok || c.dir == "" {
		return ok
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Add stores a computed result, evicting least-recently-used entries beyond
// capacity and persisting to disk when configured.
func (c *resultCache) Add(key uint64, data []byte) { c.add(key, data, true) }

func (c *resultCache) add(key uint64, data []byte, persist bool) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).data = data
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	if persist && c.dir != "" {
		// A failed persist degrades to memory-only for this entry; the result
		// itself was already computed and is being served. It is counted
		// (sweepd_disk_write_errors_total), not returned.
		if err := c.writeDisk(key, data); err != nil {
			c.diskWriteErrors.Add(1)
		}
	}
}

// Len returns the number of in-memory entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *resultCache) path(key uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("res-%016x.json", key))
}

func (c *resultCache) loadDisk(key uint64) ([]byte, bool) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var env diskResult
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false // corrupt or truncated: treat as a miss
	}
	if env.Digest != fmt.Sprintf("%016x", c.digest) || len(env.Result) == 0 {
		return nil, false // written by different physics: never serve it
	}
	// Cached bytes are served verbatim by appendPointLine, so they must be in
	// json.Encoder form: compact (an indented entry would break the NDJSON
	// framing) and HTML-escaped. What writeDisk wrote already is; this pays
	// once per fault-in for anything that is not.
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		return nil, false
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes(), true
}

func (c *resultCache) writeDisk(key uint64, data []byte) error {
	env, err := json.Marshal(diskResult{
		Key:    fmt.Sprintf("%016x", key),
		Digest: fmt.Sprintf("%016x", c.digest),
		Result: data,
	})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".res-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
