package service

import (
	"fmt"
	"hash/fnv"
	"math"

	"ofar"
)

// Request is one experiment submission — the body of POST /sweep is an
// ofar.Experiment, resolved by the same code the CLIs use.
type Request = ofar.Experiment

const (
	// maxCycles bounds warmup+measure per request: sized far above any
	// experiment in the repo (the paper's runs are ≤ 10^4 cycles) while
	// keeping a single request from monopolizing the service for hours.
	maxCycles = 10_000_000
	// maxWorkers bounds the per-network pool width a request may demand.
	maxWorkers = 64
)

// resolveBounded resolves a request and applies the service's caps:
// Experiment.Resolve accepts anything the simulator can run, a shared server
// accepts only what is bounded in size, load range and cycles.
func resolveBounded(req Request, maxLoads int) (ofar.Resolved, error) {
	var r ofar.Resolved
	if req.Config == nil && (req.H < 0 || req.H > 8) { // 0 = the default h
		return r, fmt.Errorf("h %d outside [1,8]", req.H)
	}
	if req.Config != nil && req.Config.Workers > maxWorkers {
		return r, fmt.Errorf("workers %d exceeds the service cap %d", req.Config.Workers, maxWorkers)
	}
	r, err := req.Resolve()
	if err != nil {
		return r, err
	}
	if b := req.Background; req.Jobs != "" && (math.IsNaN(b) || math.IsInf(b, 0) || b < 0 || b > 2) {
		return r, fmt.Errorf("background %v outside [0, 2]", b)
	}
	if len(r.Loads) == 0 {
		return r, fmt.Errorf("loads must name at least one offered load")
	}
	if len(r.Loads) > maxLoads {
		return r, fmt.Errorf("%d loads exceed the per-request cap %d", len(r.Loads), maxLoads)
	}
	for _, l := range r.Loads {
		if math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 || l > 2 {
			return r, fmt.Errorf("load %v outside (0, 2]", l)
		}
	}
	if r.Warmup < 0 || r.Measure < 1 {
		return r, fmt.Errorf("warmup/measure must be ≥ 0 / ≥ 1")
	}
	if r.Warmup+r.Measure > maxCycles {
		return r, fmt.Errorf("warmup+measure %d exceeds the service cap %d cycles", r.Warmup+r.Measure, maxCycles)
	}
	return r, nil
}

// pointKey is the cache identity of one sweep point: FNV-1a over the
// canonical (execution-normalized) config JSON, the pattern, the exact load
// bits, the warm-up and measurement windows, and the engine digest. Folding
// the digest in means a build whose physics changed computes disjoint keys —
// a stale result is unreachable, not merely detectable.
func pointKey(canonCfg []byte, pattern string, load float64, warmup, measure int, digest uint64) uint64 {
	h := fnv.New64a()
	h.Write(canonCfg)
	fmt.Fprintf(h, "|%s|%016x|%d|%d|%016x", pattern, math.Float64bits(load), warmup, measure, digest)
	return h.Sum64()
}
