package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"

	"ofar"
)

// Request is one experiment submission — the body of POST /sweep is an
// ofar.Experiment, resolved by the same code the CLIs use.
type Request = ofar.Experiment

const (
	// maxCycles bounds warmup+measure per request, and the cycles of a
	// transient or a burst: sized far above any experiment in the repo (the
	// paper's runs are ≤ 10^4 cycles) while keeping a single request from
	// monopolizing the service for hours.
	maxCycles = 10_000_000
	// maxBuckets bounds a transient's latency series (16 B per bucket).
	maxBuckets = 1 << 16
	// maxWorkers bounds the per-network pool width a request may demand.
	maxWorkers = 64

	// The size caps bound what network.New allocates for a request's config:
	// an out-of-memory is fatal, beyond the reach of the per-point recover.
	// Each sits far above every shipped configuration.
	//
	// maxRadix bounds the per-router counts (nodes, routers per group, global
	// links, rings, VCs per port), as Validate bounds the radix, before any
	// product of them is formed.
	maxRadix = 64
	// maxRouters is the h=8 default's router count, the largest the h
	// shorthand builds.
	maxRouters = 2064
	// maxBufPhits bounds every VC FIFO, and with it the packet size: 16× the
	// paper's deepest FIFO (256-phit global).
	maxBufPhits = 4096
	// maxLatency bounds both link latencies, from which the event wheel and
	// every group's window ring and marks are sized: 40× the paper's
	// 100-cycle global links.
	maxLatency = 4096
	// maxQueueSlots bounds the packet slots the routers carve for their VC
	// queues (a FIFO of B phits holds B/PacketSize+1), counted as if every
	// port had the most VCs and the deepest FIFO: 3× the h=8 default with two
	// embedded rings (10.6M).
	maxQueueSlots = 1 << 25
)

// decodeRequest parses a sweep body and resolves it under the service's caps.
// The body's first JSON value is the request; what follows it is ignored.
// Every error it returns is the client's (400).
func decodeRequest(body []byte, maxLoads int) (ofar.Resolved, error) {
	var req Request
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
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
	if r.Burst != nil {
		// A burst has no load axis: the request is one point, at load 0.
		if len(r.Loads) > 0 {
			return r, fmt.Errorf("a burst takes no loads")
		}
		r.Loads = []float64{0}
	} else if err := checkLoads(r.Loads, maxLoads); err != nil {
		return r, err
	}
	if r.Warmup < 0 || r.Measure < 1 {
		return r, fmt.Errorf("warmup/measure must be ≥ 0 / ≥ 1")
	}
	if r.Warmup > maxCycles || r.Measure > maxCycles-r.Warmup { // the sum may overflow
		return r, fmt.Errorf("warmup %d + measure %d exceeds the service cap %d cycles", r.Warmup, r.Measure, maxCycles)
	}
	if t := r.Transient; t != nil {
		if t.Run > maxCycles-r.Warmup || t.Drain > maxCycles-r.Warmup-t.Run {
			return r, fmt.Errorf("warmup %d + transient run %d + drain %d exceeds the service cap %d cycles", r.Warmup, t.Run, t.Drain, maxCycles)
		}
		if (r.Warmup+t.Run+t.Drain)/t.Bucket >= maxBuckets {
			return r, fmt.Errorf("a transient of %d-cycle buckets exceeds the service cap %d buckets", t.Bucket, maxBuckets)
		}
	}
	if b := r.Burst; b != nil && b.MaxCycles > maxCycles {
		return r, fmt.Errorf("burst max_cycles %d exceeds the service cap %d cycles", b.MaxCycles, maxCycles)
	}
	return r, boundSize(&r.Config)
}

// checkLoads bounds a request's offered loads in count and range.
func checkLoads(loads []float64, maxLoads int) error {
	if len(loads) == 0 {
		return fmt.Errorf("loads must name at least one offered load")
	}
	if len(loads) > maxLoads {
		return fmt.Errorf("%d loads exceed the per-request cap %d", len(loads), maxLoads)
	}
	for _, l := range loads {
		if math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 || l > 2 {
			return fmt.Errorf("load %v outside (0, 2]", l)
		}
	}
	return nil
}

// boundSize applies the size caps to a validated config.
func boundSize(c *ofar.Config) error {
	if max(c.P, c.A, c.H, c.NumRings, c.LocalVCs, c.GlobalVCs, c.InjVCs, c.RingVCs) > maxRadix {
		return fmt.Errorf("p/a/h, ring and VC counts are capped at %d", maxRadix)
	}
	routers := cmp.Or(c.Groups, c.A*c.H+1) * c.A
	if routers > maxRouters {
		return fmt.Errorf("%d routers exceed the service cap %d", routers, maxRouters)
	}
	buf := max(c.LocalBuf, c.GlobalBuf, c.InjBuf, c.RingBuf)
	if buf > maxBufPhits {
		return fmt.Errorf("a %d-phit FIFO exceeds the service cap %d phits", buf, maxBufPhits)
	}
	if lat := max(c.LocalLatency, c.GlobalLatency); lat > maxLatency {
		return fmt.Errorf("a %d-cycle link exceeds the service cap %d cycles", lat, maxLatency)
	}
	ports := c.P + c.A - 1 + c.H + c.NumRings
	vcs := max(c.LocalVCs, c.GlobalVCs, c.InjVCs, c.RingVCs) + c.NumRings
	if slots := routers * ports * vcs * (buf/c.PacketSize + 1); slots > maxQueueSlots {
		return fmt.Errorf("%d VC queue slots exceed the service cap %d", slots, maxQueueSlots)
	}
	return nil
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
