package service

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofar"
)

func TestLRUEvictionOrder(t *testing.T) {
	c, err := newResultCache(3, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		c.Add(k, []byte{byte(k)})
	}
	// Touch 1 so it becomes most-recently-used; adding 4 must now evict 2,
	// the least recently used.
	if _, ok := c.Get(1); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	c.Add(4, []byte{4})
	if _, ok := c.Get(2); ok {
		t.Error("key 2 survived: LRU should have evicted the least recently used entry")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %d evicted out of order", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	// Updating an existing key must not evict anything.
	c.Add(3, []byte{33})
	if got, _ := c.Get(3); !bytes.Equal(got, []byte{33}) {
		t.Errorf("update of key 3 not visible: %v", got)
	}
	if c.Len() != 3 {
		t.Errorf("len after in-place update = %d, want 3", c.Len())
	}
}

func TestSingleflightDedup(t *testing.T) {
	var g flightGroup
	var calls, sharedCount atomic.Int64
	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, shared, err := g.Do(42, func() ([]byte, error) {
				calls.Add(1)
				time.Sleep(100 * time.Millisecond) // hold the flight open for every waiter
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = data
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the function %d times, want exactly 1", n, got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("shared count = %d, want %d", got, n-1)
	}
	for i, r := range results {
		if string(r) != "result" {
			t.Errorf("caller %d got %q", i, r)
		}
	}
	if g.Pending(42) {
		t.Error("flight still pending after completion")
	}
}

// pointKey is the per-load formula pointKeys replaced, kept as its
// reference: FNV-1a over the canonical config and
// "|pattern|loadbits|warmup|measure|digest", hashed from scratch per point.
func pointKey(canonCfg []byte, pattern string, load float64, warmup, measure int, digest uint64) uint64 {
	h := fnv.New64a()
	h.Write(canonCfg)
	fmt.Fprintf(h, "|%s|%016x|%d|%d|%016x", pattern, math.Float64bits(load), warmup, measure, digest)
	return h.Sum64()
}

// keyOf is the production key of one point given as its components.
func keyOf(canon []byte, pattern ofar.PatternSpec, load float64, warmup, measure int, digest uint64) uint64 {
	return pointKeys(ofar.Resolved{Pattern: pattern, Canon: canon, Loads: []float64{load}, Warmup: warmup, Measure: measure}, digest)[0]
}

func TestPointKeyChangesWithEngineDigest(t *testing.T) {
	// canonOf is the canonical config JSON the resolver keys a request by.
	canonOf := func(cfg ofar.Config) []byte {
		t.Helper()
		r, err := ofar.Experiment{Config: &cfg, Loads: []float64{0.5}}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.Canon
	}
	cfg := ofar.DefaultConfig(2)
	canon := canonOf(cfg)
	d := ofar.EngineDigest()
	un := ofar.Uniform()
	k1 := keyOf(canon, un, 0.5, 1000, 2000, d)
	k2 := keyOf(canon, un, 0.5, 1000, 2000, d+1)
	if k1 == k2 {
		t.Fatal("a different engine digest must produce a different cache key — a physics change would serve stale results")
	}
	// Wall-clock-only execution settings canonicalize away: a Workers=4
	// sharded config shares cache entries with the serial one (results are
	// bit-identical by the engine's determinism contract).
	par := cfg
	par.Workers = 4
	par.ShardByGroup = true
	if k3 := keyOf(canonOf(par), un, 0.5, 1000, 2000, d); k3 != k1 {
		t.Error("execution-only config fields leaked into the cache key")
	}
	// Physics-relevant knobs must move the key.
	seeded := cfg
	seeded.Seed++
	if keyOf(canonOf(seeded), un, 0.5, 1000, 2000, d) == k1 {
		t.Error("seed change did not move the cache key")
	}
	if keyOf(canon, un, 0.5000001, 1000, 2000, d) == k1 {
		t.Error("load change did not move the cache key")
	}
	if keyOf(canon, ofar.Adv(2), 0.5, 1000, 2000, d) == k1 {
		t.Error("pattern change did not move the cache key")
	}
	if keyOf(canon, un, 0.5, 1000, 2001, d) == k1 {
		t.Error("measurement-window change did not move the cache key")
	}
}

// pinnedEngine is the EngineDigest() of the build the literal cache
// identities below were recorded from: the commit before the request resolver
// moved into ofar.Experiment. It enters the keys as an input, so the test
// keeps holding after a deliberate physics change moves the live digest.
const pinnedEngine = 0x157c630a8efe4df6

// TestPointKeysPinned holds the cache identity of three fixed requests to
// literals, not to self-agreement: a results directory written by an earlier
// build must keep being served as hits, so no refactor of the resolver, its
// defaults and conventions, the canonical config JSON or the key hashing may
// move a key.
func TestPointKeysPinned(t *testing.T) {
	cfg := ofar.DefaultConfig(2)
	cfg.Seed = 7
	cases := []struct {
		req  Request
		want uint64
	}{
		{Request{H: 2, Routing: "min", Loads: []float64{0.1}}, 0x73a5975b0e60448b},
		{Request{Config: &cfg, Routing: "PAR", Loads: []float64{0.2}, Warmup: 500, Measure: 700}, 0x4a752dd667754069},
		{Request{H: 2, Jobs: "a2a:12@0.5,ring:12@0.2", JobMap: "random", Background: 0.05,
			Loads: []float64{0.5}, Warmup: 200, Measure: 400}, 0x81e07c566c1b3463},
	}
	for i, c := range cases {
		r, err := resolveBounded(c.req, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := pointKeys(r, pinnedEngine)[0]; got != c.want {
			t.Errorf("request %d: point key %016x, recorded %016x — existing result caches would miss", i, got, c.want)
		}
	}
}

func TestDiskCacheRejectsDifferentDigest(t *testing.T) {
	dir := t.TempDir()
	const key = uint64(7)
	data := []byte(`{"Load":0.5}`)

	c1, err := newResultCache(4, dir, 0x1111)
	if err != nil {
		t.Fatal(err)
	}
	c1.Add(key, data)

	// A fresh cache with the same digest faults the entry in from disk.
	c2, err := newResultCache(4, dir, 0x1111)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(key); !ok || !bytes.Equal(got, data) {
		t.Fatalf("same-digest disk load: got %q ok=%v, want %q", got, ok, data)
	}
	if !c2.Has(key) {
		t.Error("Has should see the faulted-in entry")
	}

	// A build with different physics must refuse the persisted entry even
	// though the file exists under the same key.
	c3, err := newResultCache(4, dir, 0x2222)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c3.Get(key); ok {
		t.Fatalf("different-digest cache served a stale persisted result: %q", got)
	}
}

func TestDiskCacheSurvivesLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := newResultCache(1, dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, []byte(`"one"`))
	c.Add(2, []byte(`"two"`)) // evicts key 1 from memory, not from disk
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if got, ok := c.Get(1); !ok || string(got) != `"one"` {
		t.Fatalf("evicted entry not servable from disk: %q ok=%v", got, ok)
	}
}

func TestDiskCacheIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := newResultCache(4, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(3, []byte(`"x"`))
	// Truncate the persisted file to simulate a torn write that bypassed the
	// atomic rename (e.g. a copied cache directory).
	if err := writeFile(c.path(3), []byte(`{"key":"000`)); err != nil {
		t.Fatal(err)
	}
	fresh, err := newResultCache(4, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(3); ok {
		t.Error("corrupt disk entry was served")
	}
}

func TestPoolLatencyBoundShedding(t *testing.T) {
	p := newSimPool(1, 100)
	defer p.Close()
	// Projected wait for one new point at a 100ms observed cost exceeds a
	// 50ms bound → shed with a positive Retry-After.
	retry, ok := p.Admit(1, 50*time.Millisecond, 100*time.Millisecond)
	if ok {
		t.Fatal("Admit accepted work whose projected wait exceeds the latency bound")
	}
	if retry <= 0 {
		t.Fatalf("retry-after = %v, want > 0", retry)
	}
	// Without a bound the same work is admitted.
	if _, ok := p.Admit(1, 0, 100*time.Millisecond); !ok {
		t.Fatal("Admit refused work with no latency bound configured")
	}
	p.Release(1)
	// Queue-depth bound: a pool with MaxQueue=2 refuses a third reservation.
	q := newSimPool(1, 2)
	defer q.Close()
	if _, ok := q.Admit(2, 0, 0); !ok {
		t.Fatal("Admit refused work within the queue bound")
	}
	if _, ok := q.Admit(1, 0, 0); ok {
		t.Fatal("Admit exceeded MaxQueue")
	}
	q.Release(2)
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
