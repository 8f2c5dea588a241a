package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"ofar"
)

// memoBody is the JSON body of a two-load request on the test config with
// the given seed.
func memoBody(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := testConfig()
	body, err := json.Marshal(Request{Config: &cfg, Seed: &seed, Loads: []float64{0.1, 0.2}, Warmup: 300, Measure: 200})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var elapsedUS = regexp.MustCompile(`"elapsed_us":[0-9]+`)

// withoutElapsed blanks every elapsed_us of a raw reply: the one field two
// replies served from the same cache entries may differ in.
func withoutElapsed(raw string) string {
	return elapsedUS.ReplaceAllString(raw, `"elapsed_us":0`)
}

// TestMemoHitMatchesMissReply: with every point cached, a body resolved from
// the memo is answered line for line as the same request resolved afresh —
// whether the fresh resolution came from other bytes of the same request
// (trailing whitespace) or from the first post of these bytes.
func TestMemoHitMatchesMissReply(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startServer(t, Options{Runner: countingRunner(&calls)})
	body := memoBody(t, 7)
	spaced := append(bytes.Clone(body), " \n"...)

	cold := postBody(t, ts.URL, body) // memo miss, computed
	miss := postBody(t, ts.URL, spaced)
	if got := srv.met.memoHits.Load(); got != 0 {
		t.Fatalf("%d memo hits after two distinct bodies, want 0", got)
	}
	hit := postBody(t, ts.URL, spaced)
	hitFirst := postBody(t, ts.URL, body)
	if got := srv.met.memoHits.Load(); got != 2 {
		t.Fatalf("%d memo hits after each body was posted again, want 2", got)
	}
	if calls.Load() != 2 || srv.memo.len() != 2 {
		t.Fatalf("%d simulations and %d memo entries, want 2 and 2", calls.Load(), srv.memo.len())
	}
	for _, r := range []sweepResponse{cold, miss, hit, hitFirst} {
		if r.status != http.StatusOK || len(r.points) != 2 || r.summary.Errors != 0 {
			t.Fatalf("HTTP %d: %s", r.status, r.raw)
		}
	}
	if miss.summary.CacheHits != 2 {
		t.Fatalf("the second request served %d points from the cache, want 2:\n%s", miss.summary.CacheHits, miss.raw)
	}
	want := withoutElapsed(miss.raw)
	for name, r := range map[string]sweepResponse{"hit": hit, "hit on the first bytes": hitFirst} {
		if got := withoutElapsed(r.raw); got != want {
			t.Errorf("%s reply differs from the resolved reply:\n got  %s\n want %s", name, got, want)
		}
	}
}

// TestMemoResolvesEachBody: a body one byte away from a memoized one (another
// seed) is resolved on its own, keys and all, and computes its own points.
func TestMemoResolvesEachBody(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startServer(t, Options{Runner: countingRunner(&calls)})
	a, b := memoBody(t, 7), memoBody(t, 8)
	if diff := len(a) - len(b); diff != 0 || bytes.Equal(a, b) {
		t.Fatalf("bodies %s and %s are not one byte apart", a, b)
	}
	ra, rb := postBody(t, ts.URL, a), postBody(t, ts.URL, b)
	if got := srv.met.memoHits.Load(); got != 0 {
		t.Fatalf("%d memo hits, want 0: the second body differs from the first", got)
	}
	if calls.Load() != 4 || srv.memo.len() != 2 {
		t.Fatalf("%d simulations and %d memo entries, want 4 and 2", calls.Load(), srv.memo.len())
	}
	for i := range ra.points {
		pa, pb := ra.points[indexOf(t, ra.points, i)], rb.points[indexOf(t, rb.points, i)]
		if pa.Key == pb.Key || pb.Source != "computed" {
			t.Errorf("point %d: keys %s and %s, second source %q; want distinct keys, computed", i, pa.Key, pb.Key, pb.Source)
		}
	}
}

// TestMemoSkipsInvalidBodies: a body that does not resolve is refused every
// time it is posted and never stored.
func TestMemoSkipsInvalidBodies(t *testing.T) {
	srv, ts := startServer(t, Options{})
	for _, body := range []string{`{"h":`, `{"h":2}`, `{"h":2,"loads":[0.1],"pattern":"NOPE"}`, `{"h":9,"loads":[0.1]}`, ``} {
		var first string
		for range 2 {
			r := postBody(t, ts.URL, []byte(body))
			if r.status != http.StatusBadRequest || (first != "" && r.raw != first) {
				t.Fatalf("%q: HTTP %d %s, want 400 %s", body, r.status, r.raw, first)
			}
			first = r.raw
		}
	}
	if n, hits := srv.memo.len(), srv.met.memoHits.Load(); n != 0 || hits != 0 {
		t.Fatalf("invalid bodies left %d memo entries and %d hits, want none", n, hits)
	}
}

// TestMemoBounds: however many bodies are stored, the memo holds at most
// memoEntries of them, each at most memoMaxBody bytes, and evicts the oldest
// first.
func TestMemoBounds(t *testing.T) {
	m := newRequestMemo()
	// Distinct bodies of up to memoMaxBody bytes: {"seed":i} and padding.
	bodyOf := func(i int) []byte { return []byte(fmt.Sprintf(`{"seed":%d}%*s`, i, i*97%(memoMaxBody-16), "")) }
	check := func() {
		t.Helper()
		total := 0
		for _, rv := range m.items {
			total += len(rv.body)
			if len(rv.body) > memoMaxBody {
				t.Fatalf("a %d-byte body is stored, bound %d", len(rv.body), memoMaxBody)
			}
		}
		if len(m.items) > memoEntries || total > memoEntries*memoMaxBody {
			t.Fatalf("%d entries of %d bytes, bounds %d and %d", len(m.items), total, memoEntries, memoEntries*memoMaxBody)
		}
	}
	const stored = 3*memoEntries + 7
	for i := range stored {
		body := bodyOf(i)
		m.put(fnv1a(fnvOffset64, body), body, &resolution{})
		check()
	}
	if m.len() != memoEntries {
		t.Fatalf("%d entries after %d stores, want %d", m.len(), stored, memoEntries)
	}
	for i := range stored {
		body := bodyOf(i)
		if got, want := m.get(fnv1a(fnvOffset64, body), body) != nil, i >= stored-memoEntries; got != want {
			t.Fatalf("body %d of %d: stored %v, want %v (the newest %d stay)", i, stored, got, want, memoEntries)
		}
	}
	long := bytes.Repeat([]byte(" "), memoMaxBody+1)
	m.put(fnv1a(fnvOffset64, long), long, &resolution{})
	if m.get(fnv1a(fnvOffset64, long), long) != nil {
		t.Fatalf("a %d-byte body was stored, bound %d", len(long), memoMaxBody)
	}
	check()
}

// TestMemoCollision forces two bodies onto one hash: the memo must confirm
// the bytes, not trust the hash, both in the memo itself and in the service,
// which must answer the second body's request, not the first's.
func TestMemoCollision(t *testing.T) {
	m := newRequestMemo()
	a, b := []byte(`{"h":2,"loads":[0.1]}`), []byte(`{"h":2,"loads":[0.2]}`)
	const h = 0x5eed
	ra, rb := &resolution{}, &resolution{}
	m.put(h, a, ra)
	if got := m.get(h, b); got != nil {
		t.Fatal("a body was given the resolution of another body with the same hash")
	}
	if m.get(h, a) != ra {
		t.Fatal("a stored body was not found")
	}
	m.put(h, b, rb)
	if m.get(h, b) != rb || m.get(h, a) != nil || m.len() != 1 {
		t.Fatalf("after a colliding store: %d entries; the later body must replace the earlier", m.len())
	}

	srv, ts := startServer(t, Options{})
	first, second := memoBody(t, 7), memoBody(t, 8)
	if r := postBody(t, ts.URL, first); r.status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", r.status, r.raw)
	}
	// File the first body's resolution under the second body's hash too.
	stored := srv.memo.get(fnv1a(fnvOffset64, first), first)
	srv.memo.put(fnv1a(fnvOffset64, second), first, stored)
	res, err := decodeRequest(second, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := newResolution(res, srv.digest)
	r := postBody(t, ts.URL, second)
	if r.status != http.StatusOK || len(r.points) != len(want.hex) {
		t.Fatalf("HTTP %d: %s", r.status, r.raw)
	}
	for _, p := range r.points {
		if p.Key != want.hex[p.Index] {
			t.Errorf("point %d: key %s, want %s: the reply answered the colliding body", p.Index, p.Key, want.hex[p.Index])
		}
	}
}

// TestMemoConcurrentIdenticalPosts: identical bodies posted at once may each
// resolve, but they leave one memo entry, get one reply, and the next post is
// a memo hit. Run under -race, it checks that a shared resolution is only read.
func TestMemoConcurrentIdenticalPosts(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startServer(t, Options{Sims: 2, Runner: countingRunner(&calls)})
	body := memoBody(t, 7)
	const n = 8
	replies := make([]sweepResponse, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			replies[i] = postBody(t, ts.URL, body)
		}()
	}
	close(start)
	wg.Wait()
	if n := srv.memo.len(); n != 1 {
		t.Fatalf("%d memo entries after identical posts, want 1", n)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d simulations for two points, want 2", calls.Load())
	}
	for i, r := range replies {
		if r.status != http.StatusOK || len(r.points) != 2 || r.summary.Errors != 0 {
			t.Fatalf("reply %d: HTTP %d: %s", i, r.status, r.raw)
		}
		for _, p := range r.points {
			q := replies[0].points[indexOf(t, replies[0].points, p.Index)]
			if p.Key != q.Key || !bytes.Equal(p.Result, q.Result) {
				t.Errorf("reply %d point %d differs from reply 0's", i, p.Index)
			}
		}
	}
	hits := srv.met.memoHits.Load()
	postBody(t, ts.URL, body)
	if got := srv.met.memoHits.Load(); got != hits+1 || srv.memo.len() != 1 {
		t.Fatalf("memo hits %d → %d, %d entries; want one more hit and still 1 entry", hits, got, srv.memo.len())
	}
}

// TestMemoRepeatedLoadAdmittedOnce: a load named twice in one request is one
// point of new work, counted once by admission through the resolution's
// repeat flags, so a one-slot queue admits the request on its first post
// and its memoized repeat.
func TestMemoRepeatedLoadAdmittedOnce(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startServer(t, Options{Sims: 1, MaxQueue: 1, Runner: countingRunner(&calls)})
	cfg := testConfig()
	body, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1, 0.1}, Warmup: 300, Measure: 200})
	if err != nil {
		t.Fatal(err)
	}
	for post := range 2 {
		r := postBody(t, ts.URL, body)
		if r.status != http.StatusOK || len(r.points) != 2 || r.summary.Errors != 0 {
			t.Fatalf("post %d: HTTP %d: %s", post, r.status, r.raw)
		}
	}
	if calls.Load() != 1 || srv.met.memoHits.Load() != 1 {
		t.Fatalf("%d simulations and %d memo hits, want 1 and 1", calls.Load(), srv.met.memoHits.Load())
	}
}

// discard is a ResponseWriter that keeps nothing, so that counting a
// handler's allocations counts only the handler's.
type discard struct{ h http.Header }

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(p []byte) (int, error) { return len(p), nil }
func (w *discard) WriteHeader(int)             {}

// TestAllHitRequestAllocs: a request whose body is memoized and whose points
// are all cached allocates only what net/http's plumbing asks for — the body
// reader and a header value — and the request's reservation record, however
// many points it has. Decoding, resolving and keying it again cost ~50.
func TestAllHitRequestAllocs(t *testing.T) {
	srv, err := New(Options{Runner: func(r ofar.Resolved, load float64, _ ofar.SweepOptions) (ofar.PointResult, error) {
		return fakeResult(r, load), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := testConfig()
	body, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, Warmup: 300, Measure: 200})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/sweep", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	w := &discard{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		srv.handleSweep(w, req)
	}
	serve() // computes every point and memoizes the body
	serve()
	if got := srv.met.memoHits.Load(); got != 1 {
		t.Fatalf("%d memo hits, want 1", got)
	}
	if allocs := testing.AllocsPerRun(50, serve); allocs > 3 {
		t.Fatalf("an all-hit request allocates %v times, want ≤ 3", allocs)
	}
}
