package ofar

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"ofar/internal/network"
)

// WarmState is a network that has finished its warm-up phase and is held as
// a measurement parent: every Measure call forks it and runs the window on
// the fork, leaving the parent untouched — the API for taking several windows
// off one warm-up, each equal to the uninterrupted RunSteady run exactly. A
// point needs its warm state once and does not pay for a fork: Resolved.Run
// measures in place, and its warm cache is these snapshots on disk.
//
// Warm states serialize: Snapshot writes the parent's full image, and
// WarmFromSnapshot rebuilds a warm state from one without re-simulating the
// warm-up. The snapshot header pins the format version, the engine's
// golden-trace digest and the normalized configuration, so a stale file can
// never silently resume into changed physics — it just fails to restore.
type WarmState struct {
	load    float64
	pattern string
	net     *network.Network
}

// Warm builds a network, attaches an open-loop Bernoulli source for the
// pattern and load, and simulates the warm-up phase (with the latency
// histogram enabled, exactly as RunSteady does). Close the result when done.
func Warm(cfg Config, ps PatternSpec, load float64, warmup int) (*WarmState, error) {
	return warmState(cfg, ps, load, warmup, nil)
}

// WarmFromSnapshot rebuilds a warm state from a snapshot written by
// WarmState.Snapshot, skipping the warm-up simulation. cfg, ps and load must
// match the warming run (the snapshot rejects a different configuration; the
// pattern and load re-create the identical traffic source, whose RNG
// position the snapshot carries).
func WarmFromSnapshot(cfg Config, ps PatternSpec, load float64, r io.Reader) (*WarmState, error) {
	return warmState(cfg, ps, load, 0, r)
}

func warmState(cfg Config, ps PatternSpec, load float64, warmup int, snap io.Reader) (*WarmState, error) {
	n, pattern, err := Resolved{Config: cfg, Pattern: ps, Warmup: warmup}.point(load).warm(snap)
	if err != nil {
		return nil, err
	}
	return &WarmState{load: load, pattern: pattern, net: n}, nil
}

// Warmup returns the simulated cycle the warm state is parked at.
func (w *WarmState) Warmup() int64 { return w.net.Now() }

// Snapshot writes the warm parent's full state; WarmFromSnapshot reads it.
func (w *WarmState) Snapshot(wr io.Writer) error { return w.net.Snapshot(wr) }

// Close releases the parent network (its worker pool, when configured).
func (w *WarmState) Close() { w.net.Close() }

// Measure forks the warm state and runs one measurement window on the fork,
// returning the same SteadyResult an uninterrupted RunSteady with this
// configuration, pattern, load and warm-up would. The parent is not
// perturbed, so Measure can be called repeatedly.
func (w *WarmState) Measure(measure int) (SteadyResult, error) {
	n, err := w.net.Fork()
	if err != nil {
		return SteadyResult{}, err
	}
	defer n.Close()
	return measureSteady(n, w.pattern, w.load, measure)
}

// MeasureTimed is Measure with per-phase Step timing enabled on the fork,
// additionally returning where the measurement window's wall-clock went.
// The result is bit-identical to Measure's — timing is observation only —
// and the parent stays untouched either way.
func (w *WarmState) MeasureTimed(measure int) (SteadyResult, PhaseNanos, error) {
	n, err := w.net.Fork()
	if err != nil {
		return SteadyResult{}, PhaseNanos{}, err
	}
	defer n.Close()
	n.EnablePhaseTimings()
	res, err := measureSteady(n, w.pattern, w.load, measure)
	return res, n.PhaseTimings(), err
}

// EngineDigest returns the engine's physics fingerprint: the grant digest of
// one small canonical run, computed once per process (see
// network.EngineDigest). Snapshot restores refuse images written by a
// behaviorally different build, and the sweep service folds this digest into
// every result-cache key, so a code change that moves the physics can never
// serve a stale cached result.
func EngineDigest() uint64 { return network.EngineDigest() }

// canonicalConfigJSON returns the canonical identity of a configuration: its
// JSON encoding with the wall-clock-only execution fields (Workers,
// DisableRouteCache) and the ignored ones normalized away (see
// network.SnapshotConfigJSON). Two configurations that differ only in those
// fields simulate bit-identically and canonicalize to the same bytes, which
// is what lets the warm-snapshot cache and the sweep service's result cache
// share entries across execution settings.
func canonicalConfigJSON(cfg Config) ([]byte, error) { return network.SnapshotConfigJSON(cfg) }

// warmSnapshotName derives the cache file name of a warm state from
// everything that determines it: the snapshot-normalized configuration (so
// worker/cache settings share entries, as they share snapshots),
// the pattern (Resolved.PatternName), the load and the warm-up length.
func warmSnapshotName(cfg Config, pattern string, load float64, warmup int) (string, error) {
	cj, err := network.SnapshotConfigJSON(cfg)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(cj)
	fmt.Fprintf(h, "|%s|%016x|%d", pattern, math.Float64bits(load), warmup)
	return fmt.Sprintf("warm-%016x.ofarsnap", h.Sum64()), nil
}

// writeWarmSnapshot persists a warm network atomically (temp file + rename), so
// concurrent sweep points — or concurrent sweep processes sharing a cache
// directory — never observe a half-written snapshot.
func writeWarmSnapshot(path string, n *network.Network) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".warm-*")
	if err != nil {
		return err
	}
	err = n.Snapshot(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
