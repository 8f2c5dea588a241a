package service

import (
	"encoding/json"
	"fmt"
	"io"
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

// decodeRequest parses a sweep body and resolves it under the service's caps.
// Every error it returns is the client's (400).
func decodeRequest(body io.Reader, maxLoads int) (ofar.Resolved, error) {
	var req Request
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return ofar.Resolved{}, fmt.Errorf("parsing request: %w", err)
	}
	return resolveBounded(req, maxLoads)
}

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

// pointKeys returns the cache identity of every sweep point of res: FNV-1a
// over the canonical (execution-normalized) config JSON, then
// "|pattern|loadbits|warmup|measure|digest" with the exact load bits and the
// digest as 16 hex digits. Folding the digest in means a build whose physics
// changed computes disjoint keys — a stale result is unreachable, not merely
// detectable. FNV-1a is a running fold, so the config is hashed once and only
// the per-load suffix is hashed per point.
func pointKeys(res ofar.Resolved, digest uint64) []uint64 {
	prefix := fnv1a(fnv1a(fnvOffset64, res.Canon), fmt.Appendf(nil, "|%s|", res.PatternName()))
	tail := fmt.Appendf(nil, "|%d|%d|%016x", res.Warmup, res.Measure, digest)
	keys := make([]uint64, len(res.Loads))
	var hex [16]byte
	for i, l := range res.Loads {
		keys[i] = fnv1a(fnv1a(prefix, appendHex16(hex[:0], math.Float64bits(l))), tail)
	}
	return keys
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds p into the FNV-1a state h (hash/fnv's New64a, continued).
func fnv1a(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
