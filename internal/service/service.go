// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON server that accepts experiment requests (config + pattern +
// loads + windows), canonicalizes and hashes each point keyed on the
// engine's physics digest, and serves results from a determinism-backed
// cache. Because every run is bit-identical given (config, seed), a cached
// result IS the result: hits return in microseconds with no simulation.
//
// Misses coalesce singleflight-style (N concurrent identical requests → one
// simulation) and run on a bounded worker pool that composes with the
// engine's own parallelism budget; an admission gate sheds load with 429 +
// Retry-After once the queue would blow the configured latency bound.
// A reply is NDJSON: every cached point at once, in one write, then each
// miss as it completes, then a summary line.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ofar"

	"ofar/internal/network"
)

// PointRunner computes one point of a resolved experiment, pattern or job
// set. The default is ofar.Resolved.Run; tests substitute counting, blocking
// or panicking runners.
type PointRunner func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error)

// Options configures a Server. Zero values pick sensible defaults.
type Options struct {
	// CacheEntries bounds the in-memory result LRU (default 4096).
	CacheEntries int
	// DiskDir, when set, persists results (DiskDir/results) and warm
	// snapshots (DiskDir/warm) across restarts, both written with the
	// atomic temp-file + rename layout of the PR 6 warm cache.
	DiskDir string
	// Sims bounds concurrently executing simulations (default GOMAXPROCS).
	Sims int
	// MaxQueue bounds admitted-but-not-running points; beyond it requests
	// are shed with 429 (default 256).
	MaxQueue int
	// P99Bound, when > 0, sheds requests whose projected wait (queue depth ×
	// observed per-point cost / workers) exceeds it, keeping service latency
	// bounded under overload instead of queueing without limit.
	P99Bound time.Duration
	// MaxLoads bounds points per request (default 64).
	MaxLoads int
	// Runner substitutes the simulation function (tests).
	Runner PointRunner
}

// Server is the sweep service. It implements http.Handler with three
// endpoints: POST /sweep (NDJSON point stream), GET /healthz, GET /metrics.
type Server struct {
	opts    Options
	digest  uint64
	engine  string // digest as 16 hex digits, for the summary line
	cache   *resultCache
	flights flightGroup
	memo    *requestMemo
	pool    *simPool
	met     *metrics
	mux     *http.ServeMux
	warmDir string
	runner  PointRunner
}

// New assembles a server. Close it when done to stop the worker pool.
func New(opts Options) (*Server, error) {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.Sims <= 0 {
		opts.Sims = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	if opts.MaxLoads <= 0 {
		opts.MaxLoads = 64
	}
	s := &Server{
		opts:   opts,
		digest: ofar.EngineDigest(),
		met:    newMetrics(),
		memo:   newRequestMemo(),
		runner: opts.Runner,
	}
	s.engine = fmt.Sprintf("%016x", s.digest)
	if s.runner == nil {
		s.runner = ofar.Resolved.Run
	}
	resultsDir := ""
	if opts.DiskDir != "" {
		resultsDir = opts.DiskDir + "/results"
		s.warmDir = opts.DiskDir + "/warm"
	}
	var err error
	if s.cache, err = newResultCache(opts.CacheEntries, resultsDir, s.digest); err != nil {
		return nil, err
	}
	s.pool = newSimPool(opts.Sims, opts.MaxQueue)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Close stops the worker pool after the queue drains. Call only once no
// requests are in flight (e.g. after http.Server.Shutdown).
func (s *Server) Close() { s.pool.Close() }

// Options returns the options the server runs with: those New was given,
// with every zero value replaced by its default.
func (s *Server) Options() Options { return s.opts }

// EngineDigest returns the physics fingerprint baked into every cache key.
func (s *Server) EngineDigest() uint64 { return s.digest }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "ok engine=%016x snapshot=v%d\n", s.digest, network.SnapshotVersion)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.writeTo(w, s.pool, s.cache)
}

// PointResponse is one NDJSON line of a sweep response: a completed point
// with its provenance — "cache" (no simulation), "computed" (this request
// led the simulation) or "coalesced" (joined another request's simulation).
// ElapsedUS is the service time of the point: for cache hits the lookup
// itself, for computed points queueing + simulation.
type PointResponse struct {
	Type      string          `json:"type"` // "point"
	Index     int             `json:"index"`
	Load      float64         `json:"load"`
	Key       string          `json:"key"`
	Source    string          `json:"source"`
	ElapsedUS int64           `json:"elapsed_us"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// SummaryResponse is the final NDJSON line of a sweep response.
type SummaryResponse struct {
	Type      string `json:"type"` // "summary"
	Points    int    `json:"points"`
	CacheHits int    `json:"cache_hits"`
	Computed  int    `json:"computed"`
	Coalesced int    `json:"coalesced"`
	Errors    int    `json:"errors"`
	ElapsedUS int64  `json:"elapsed_us"`
	Engine    string `json:"engine"`
}

// errorResponse is the body of a non-200 answer.
type errorResponse struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
}

// reqState tracks one request's reservations so unused ones are returned.
type reqState struct {
	reserved atomic.Int64 // pool slots this request reserved and has not yet used
}

// take uses one of the request's reservations, reporting whether one was
// left: a leader whose request reserved nothing for its point (the point
// looked cached or in flight at admission), or whose handler has already
// returned the rest, runs unreserved.
func (rs *reqState) take() bool {
	for {
		n := rs.reserved.Load()
		if n <= 0 {
			return false
		}
		if rs.reserved.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func writeJSONError(w http.ResponseWriter, code int, resp errorResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// maxBodyBytes caps a sweep body: a longer one is refused (400) unread past
// the cap.
const maxBodyBytes = 1 << 20

// bufs recycles the buffer a /sweep request reads its body into and then
// builds its reply in. A buffer that grew past maxPooledBuf (an oversized
// body, a reply of many large results) is left to the collector.
var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBuf = 64 << 10

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now() // the summary's elapsed_us covers reading, resolving and admitting the body too
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a sweep request"})
		return
	}
	bp := bufs.Get().(*[]byte)
	body := bytes.NewBuffer((*bp)[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var rv *resolution
	if err != nil {
		err = fmt.Errorf("parsing request: %w", err)
	} else {
		rv, err = s.resolve(body.Bytes())
	}
	buf := body.Bytes()[:0] // the body is resolved: the reply reuses its buffer
	defer func() {
		if cap(buf) <= maxPooledBuf {
			*bp = buf[:0]
			bufs.Put(bp)
		}
	}()
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Admission: count the points that would create NEW work — not cached,
	// not already in flight, not duplicated within this request — and
	// reserve pool slots for exactly those before anything streams. A
	// request that only reads the cache or piggybacks on open flights is
	// always admitted; one that would overflow the queue (or the latency
	// bound) is shed before any simulation starts.
	newWork := 0
	for i, k := range rv.keys {
		if !rv.repeat[i] && !s.cache.Has(k) && !s.flights.Pending(k) {
			newWork++
		}
	}
	rs := &reqState{}
	if newWork > 0 {
		retry, ok := s.pool.Admit(newWork, s.opts.P99Bound, s.met.pointCost())
		if !ok {
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeJSONError(w, http.StatusTooManyRequests, errorResponse{
				Error:      "overloaded: admission queue full or latency bound exceeded",
				RetryAfter: retry.Seconds(),
			})
			return
		}
		rs.reserved.Store(int64(newWork))
	}
	defer func() {
		if n := rs.reserved.Swap(0); n > 0 {
			s.pool.Release(int(n))
		}
	}()
	s.met.requests.Add(1)

	// Lookup pass: every cache hit becomes a line in buf on this goroutine;
	// only a miss gets a goroutine (singleflight → pool), whose line comes
	// back on `lines`. buf is written out — and flushed, so the client has
	// every line so far — only right before the handler blocks on a miss, so
	// cached lines stream first and an all-hit reply is a single write.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var (
		sum     SummaryResponse
		lines   chan PointResponse // room for every miss: a sender never blocks on a handler that returned early
		pending int
	)
	for i, key := range rv.keys {
		t0 := time.Now()
		data, ok := s.cache.Get(key)
		if !ok {
			if lines == nil {
				lines = make(chan PointResponse, len(rv.keys)-i)
			}
			pending++
			go s.point(lines, rs, rv, i, t0)
			continue
		}
		d := time.Since(t0)
		s.met.hits.Add(1)
		s.met.observePoint(d)
		line := rv.line(i)
		line.Source, line.Result, line.ElapsedUS = "cache", data, d.Microseconds()
		buf = sum.append(buf, &line)
	}
	for ; pending > 0; pending-- {
		var line PointResponse
		select {
		case line = <-lines:
		default:
			if _, err := w.Write(buf); err != nil {
				return // the client is gone; open flights still fill the cache
			}
			buf = buf[:0]
			if flusher != nil {
				flusher.Flush()
			}
			select {
			case line = <-lines:
			case <-r.Context().Done():
				return
			}
		}
		buf = sum.append(buf, &line)
	}
	sum.Type = "summary"
	sum.ElapsedUS = time.Since(start).Microseconds()
	sum.Engine = s.engine
	buf = appendSummaryLine(buf, &sum)
	w.Write(buf)
}

// resolve returns the resolution of a sweep body: the memo's when these
// exact bytes resolved before, else a fresh one, which the memo keeps.
// Only a body that resolves is stored.
func (s *Server) resolve(body []byte) (*resolution, error) {
	h := fnv1a(fnvOffset64, body)
	if rv := s.memo.get(h, body); rv != nil {
		s.met.memoHits.Add(1)
		return rv, nil
	}
	res, err := decodeRequest(body, s.opts.MaxLoads)
	if err != nil {
		return nil, err
	}
	rv := newResolution(res, s.digest)
	s.memo.put(h, body, rv)
	return rv, nil
}

// append counts line into the summary and appends it to buf.
func (sum *SummaryResponse) append(buf []byte, line *PointResponse) []byte {
	sum.Points++
	switch line.Source {
	case "cache":
		sum.CacheHits++
	case "computed":
		sum.Computed++
	case "coalesced":
		sum.Coalesced++
	}
	if line.Error != "" {
		sum.Errors++
	}
	return appendPointLine(buf, line)
}

// point computes one sweep point the lookup pass missed — singleflight, then
// the admission-controlled pool — and sends its line on lines. start is when
// its lookup began, so the line's elapsed_us covers lookup, queueing and
// simulation. The line carries the result bytes exactly as the simulation
// marshaled them, so identical points are byte-identical across cache hits,
// coalesced waits and fresh computations.
func (s *Server) point(lines chan<- PointResponse, rs *reqState, rv *resolution, index int, start time.Time) {
	res, key := rv.res, rv.keys[index]
	line := rv.line(index)
	lateHit := false // set by this goroutine only: Do runs a leader's fn inline
	data, shared, err := s.flights.Do(key, func() ([]byte, error) {
		// Double-check under the flight: the leader may have completed
		// between our cache probe and this flight opening. That is a cache
		// hit, and is reported as one — nothing was computed.
		if data, ok := s.cache.Get(key); ok {
			lateHit = true
			return data, nil
		}
		var (
			out  []byte
			rerr error
		)
		done := make(chan struct{})
		s.pool.Submit(res.Config.PoolWidth(), rs.take(), func() {
			defer close(done)
			// A panicking simulation fails its point, not the server: the
			// worker returns, so its pool tokens are released.
			defer func() {
				if p := recover(); p != nil {
					s.met.panicked.Add(1)
					rerr = fmt.Errorf("simulation panicked: %v", p)
				}
			}()
			t0 := time.Now()
			pr, err := s.runner(res, res.Loads[index], s.sweepOptions())
			s.met.observeSim(time.Since(t0))
			if err != nil {
				rerr = err
				return
			}
			if pr.Restored {
				s.met.restored.Add(1)
			}
			var reply any = pr.SteadyResult
			switch {
			case res.Jobs != nil:
				reply = ofar.JobsResult{Workload: res.PatternName(), Scale: res.Loads[index], Agg: pr.SteadyResult, Jobs: pr.Jobs}
			case pr.Transient != nil:
				reply = pr.Transient
			case pr.Burst != nil:
				reply = pr.Burst
			}
			out, rerr = marshalResult(reply)
		})
		<-done
		if rerr != nil {
			return nil, rerr
		}
		s.cache.Add(key, out)
		return out, nil
	})
	line.ElapsedUS = time.Since(start).Microseconds()
	s.met.observePoint(time.Since(start))
	switch {
	case shared:
		s.met.coalesced.Add(1)
		line.Source = "coalesced"
	case lateHit:
		s.met.hits.Add(1)
		line.Source = "cache"
	default:
		s.met.misses.Add(1)
		line.Source = "computed"
	}
	if err != nil {
		s.met.errored.Add(1)
		line.Error = err.Error()
	} else {
		line.Result = data
	}
	lines <- line
}

// sweepOptions builds the per-point SweepOptions: with a disk directory
// configured, the shared warm-snapshot cache, so a point — pattern or job
// set — warmed once is resumed, not re-warmed, whenever a later request
// (another window, a restarted server) needs it; and the metrics phase sink,
// so /metrics can report where the service's simulation seconds go per phase.
func (s *Server) sweepOptions() ofar.SweepOptions {
	return ofar.SweepOptions{
		CheckpointDir: s.warmDir,
		RestoreDir:    s.warmDir,
		PhaseSink:     s.met.observePhases,
	}
}
