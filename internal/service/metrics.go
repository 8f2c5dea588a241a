package service

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ofar"
)

// metrics is the observable side of the service's perf claims: cache hit
// rate, queue depth, in-flight simulations and per-point service latency are
// exported rather than asserted. Counters are atomics; the latency ring and
// the EWMA sit behind a small mutex (updated once per point, read on scrape).
type metrics struct {
	start time.Time

	requests  atomic.Int64 // POST /sweep calls accepted for processing
	shed      atomic.Int64 // requests refused with 429
	hits      atomic.Int64 // points served from the result cache
	misses    atomic.Int64 // points that led a simulation
	coalesced atomic.Int64 // points that joined an in-flight simulation
	errored   atomic.Int64 // points whose simulation failed
	panicked  atomic.Int64 // simulations that panicked (each also fails its points)
	restored  atomic.Int64 // simulations that skipped warm-up via a warm snapshot
	memoHits  atomic.Int64 // sweep bodies whose resolution came from the request memo

	mu        sync.Mutex
	ewmaNanos float64   // smoothed cost of one simulated point
	ring      []float64 // recent per-point service latencies, seconds
	ringNext  int
	ringFull  bool

	// Per-phase Step timing, accumulated across every measured point (the
	// sweep options install observePhases as the PhaseSink). Answers "where
	// do this service's simulation seconds go" without attaching a profiler.
	phases ofar.PhaseNanos // guarded by mu
}

const latencyRingSize = 1024

func newMetrics() *metrics {
	return &metrics{start: time.Now(), ring: make([]float64, latencyRingSize)}
}

// observeSim records the cost of one actual simulation (the admission
// estimator's unit of work).
func (m *metrics) observeSim(d time.Duration) {
	m.mu.Lock()
	if m.ewmaNanos == 0 {
		m.ewmaNanos = float64(d.Nanoseconds())
	} else {
		m.ewmaNanos = 0.8*m.ewmaNanos + 0.2*float64(d.Nanoseconds())
	}
	m.mu.Unlock()
}

// observePoint records the end-to-end service latency of one point (cache
// lookup, queueing and simulation included) for the latency quantiles.
func (m *metrics) observePoint(d time.Duration) {
	m.mu.Lock()
	m.ring[m.ringNext] = d.Seconds()
	m.ringNext++
	if m.ringNext == len(m.ring) {
		m.ringNext = 0
		m.ringFull = true
	}
	m.mu.Unlock()
}

// observePhases folds one measurement window's per-phase Step breakdown into
// the served totals. Safe for concurrent calls — it is handed to the sweep
// layer as SweepOptions.PhaseSink, which may fire from parallel points.
func (m *metrics) observePhases(p ofar.PhaseNanos) {
	m.mu.Lock()
	m.phases.Add(p)
	m.mu.Unlock()
}

// pointCost returns the smoothed per-simulation cost (0 until one completes).
func (m *metrics) pointCost() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.ewmaNanos)
}

// quantiles returns the p50/p90/p99 of recent per-point service latencies in
// seconds, over up to latencyRingSize samples.
func (m *metrics) quantiles() (p50, p90, p99 float64, n int) {
	m.mu.Lock()
	n = m.ringNext
	if m.ringFull {
		n = len(m.ring)
	}
	samples := make([]float64, n)
	copy(samples, m.ring[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(samples)
	rank := func(q float64) float64 {
		// Nearest-rank: ceil(q·n) is a 1-based rank, so subtract one. The
		// previous int(q·n) indexing overshot a full rank whenever q·n
		// landed on an integer — the p90 of 10 samples came back as the
		// maximum, and the median of 2 as the larger one (the same bug the
		// utilization summary had).
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return samples[i]
	}
	return rank(0.50), rank(0.90), rank(0.99), n
}

// writeTo renders the Prometheus-style text exposition.
func (m *metrics) writeTo(w http.ResponseWriter, pool *simPool, cache *resultCache) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	hits, misses := m.hits.Load(), m.misses.Load()
	var hitRate float64
	if hits+misses+m.coalesced.Load() > 0 {
		hitRate = float64(hits) / float64(hits+misses+m.coalesced.Load())
	}
	p50, p90, p99, n := m.quantiles()
	fmt.Fprintf(w, "sweepd_uptime_seconds %.1f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "sweepd_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "sweepd_requests_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "sweepd_request_memo_hits_total %d\n", m.memoHits.Load())
	fmt.Fprintf(w, "sweepd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "sweepd_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "sweepd_points_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "sweepd_points_errored_total %d\n", m.errored.Load())
	fmt.Fprintf(w, "sweepd_sim_panics_total %d\n", m.panicked.Load())
	fmt.Fprintf(w, "sweepd_warm_restores_total %d\n", m.restored.Load())
	fmt.Fprintf(w, "sweepd_disk_write_errors_total %d\n", cache.diskWriteErrors.Load())
	fmt.Fprintf(w, "sweepd_cache_hit_rate %.4f\n", hitRate)
	fmt.Fprintf(w, "sweepd_cache_entries %d\n", cache.Len())
	fmt.Fprintf(w, "sweepd_queue_depth %d\n", pool.Depth())
	fmt.Fprintf(w, "sweepd_inflight_sims %d\n", pool.Inflight())
	fmt.Fprintf(w, "sweepd_point_cost_seconds %.6f\n", m.pointCost().Seconds())
	fmt.Fprintf(w, "sweepd_point_latency_seconds{quantile=\"0.5\"} %.6f\n", p50)
	fmt.Fprintf(w, "sweepd_point_latency_seconds{quantile=\"0.9\"} %.6f\n", p90)
	fmt.Fprintf(w, "sweepd_point_latency_seconds{quantile=\"0.99\"} %.6f\n", p99)
	fmt.Fprintf(w, "sweepd_point_latency_samples %d\n", n)
	m.mu.Lock()
	ph := m.phases
	m.mu.Unlock()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	fmt.Fprintf(w, "sweepd_step_phase_seconds_total{phase=\"faults\"} %.6f\n", sec(ph.Faults))
	fmt.Fprintf(w, "sweepd_step_phase_seconds_total{phase=\"events\"} %.6f\n", sec(ph.Events))
	fmt.Fprintf(w, "sweepd_step_phase_seconds_total{phase=\"generate\"} %.6f\n", sec(ph.Generate))
	fmt.Fprintf(w, "sweepd_step_phase_seconds_total{phase=\"pb\"} %.6f\n", sec(ph.PB))
	fmt.Fprintf(w, "sweepd_step_phase_seconds_total{phase=\"routers\"} %.6f\n", sec(ph.Routers))
	fmt.Fprintf(w, "sweepd_step_phase_cycles_total %d\n", ph.Cycles)
}
