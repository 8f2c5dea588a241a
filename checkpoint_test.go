package ofar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"ofar/internal/network"
)

func warmTestConfig() Config {
	cfg := DefaultConfig(2)
	cfg.Seed = 11
	return cfg
}

// TestWarmMeasureMatchesRunSteady pins the PR's core equivalence at the API
// surface: warming once and measuring on a fork reports the exact
// SteadyResult of the classic uninterrupted run — every field, including
// histogram quantiles and fault counters.
func TestWarmMeasureMatchesRunSteady(t *testing.T) {
	cfg := warmTestConfig()
	const warmup, measure = 300, 400

	classic, err := RunSteady(cfg, Uniform(), 0.6, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(cfg, Uniform(), 0.6, warmup)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	forked, err := w.Measure(measure)
	if err != nil {
		t.Fatal(err)
	}
	if forked != classic {
		t.Fatalf("warm-fork result diverged from RunSteady:\n fork    %+v\n classic %+v", forked, classic)
	}

	// The parent is reusable: a second measurement is identical too.
	again, err := w.Measure(measure)
	if err != nil {
		t.Fatal(err)
	}
	if again != classic {
		t.Fatalf("second measurement off the same warm state diverged:\n again   %+v\n classic %+v", again, classic)
	}
}

// TestMeasureTimedMatchesMeasure pins the phase-timing contract: MeasureTimed
// returns the exact SteadyResult Measure does (timing is observation only)
// plus a breakdown that accounted every measured cycle.
func TestMeasureTimedMatchesMeasure(t *testing.T) {
	cfg := warmTestConfig()
	const warmup, measure = 300, 400
	w, err := Warm(cfg, Uniform(), 0.6, warmup)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	plain, err := w.Measure(measure)
	if err != nil {
		t.Fatal(err)
	}
	timed, ph, err := w.MeasureTimed(measure)
	if err != nil {
		t.Fatal(err)
	}
	if timed != plain {
		t.Fatalf("timed measurement diverged from plain:\n timed %+v\n plain %+v", timed, plain)
	}
	if ph.Cycles != measure {
		t.Fatalf("phase breakdown covered %d cycles, want %d", ph.Cycles, measure)
	}
	if ph.Events < 0 || ph.Generate < 0 || ph.Routers < 0 {
		t.Fatalf("negative phase times: %+v", ph)
	}
}

// TestWarmSnapshotRoundTrip proves a warm state survives serialization: a
// measurement off a WarmFromSnapshot parent equals one off the original.
func TestWarmSnapshotRoundTrip(t *testing.T) {
	cfg := warmTestConfig()
	w, err := Warm(cfg, Adv(2), 0.4, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := w.Measure(300)
	if err != nil {
		t.Fatal(err)
	}

	r, err := WarmFromSnapshot(cfg, Adv(2), 0.4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Warmup() != w.Warmup() {
		t.Fatalf("restored warm state parked at cycle %d, want %d", r.Warmup(), w.Warmup())
	}
	got, err := r.Measure(300)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("measurement off restored warm state diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestWarmCacheSweep is the sweep acceptance test: a cached sweep reports the
// same rows as per-point RunSteady, and a second invocation against the cache
// re-simulates zero warmup cycles. A poisoned cache entry must degrade to a
// plain warm-up, never to a wrong row.
func TestWarmCacheSweep(t *testing.T) {
	cfg := warmTestConfig()
	loads := []float64{0.1, 0.5, 0.8}
	const warmup, measure = 250, 300
	dir := t.TempDir()
	opt := SweepOptions{CheckpointDir: dir, RestoreDir: dir}

	classic := make([]SteadyResult, len(loads))
	for i, l := range loads {
		var err error
		if classic[i], err = RunSteady(cfg, Uniform(), l, warmup, measure); err != nil {
			t.Fatal(err)
		}
	}

	first, st1, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Warmed != len(loads) || st1.Restored != 0 {
		t.Fatalf("cold cache: warmed %d / restored %d, want %d / 0", st1.Warmed, st1.Restored, len(loads))
	}
	second, st2, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Restored != len(loads) || st2.WarmupCyclesRun != 0 {
		t.Fatalf("warm cache: restored %d points, ran %d warmup cycles, want %d points and 0 cycles",
			st2.Restored, st2.WarmupCyclesRun, len(loads))
	}
	if st2.WarmupCyclesSkipped != int64(warmup*len(loads)) {
		t.Fatalf("warm cache skipped %d cycles, want %d", st2.WarmupCyclesSkipped, warmup*len(loads))
	}
	for i := range loads {
		if first[i] != classic[i] || second[i] != classic[i] {
			t.Fatalf("load %.2f: sweep rows diverged\n classic %+v\n cold    %+v\n cached  %+v",
				loads[i], classic[i], first[i], second[i])
		}
	}

	// Poison one entry: the sweep must fall back to warming and still
	// produce the identical row.
	name, err := warmSnapshotName(cfg, Uniform().Name(), loads[0], warmup)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	third, st3, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Warmed != 1 || st3.Restored != len(loads)-1 {
		t.Fatalf("poisoned cache: warmed %d / restored %d, want 1 / %d", st3.Warmed, st3.Restored, len(loads)-1)
	}
	for i := range loads {
		if third[i] != classic[i] {
			t.Fatalf("load %.2f after cache poisoning: %+v != %+v", loads[i], third[i], classic[i])
		}
	}

	// An entry of the previous format version — well-formed, only its
	// version field reads 4 — is a miss as well: the point warms again, its
	// row does not move, and the entry it writes back restores next time.
	path := filepath.Join(dir, name)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version := img[len("OFARSNAP"):]
	if v := binary.LittleEndian.Uint64(version); v != network.SnapshotVersion {
		t.Fatalf("rewritten entry has format version %d, want %d", v, network.SnapshotVersion)
	}
	binary.LittleEndian.PutUint64(version, 4)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fourth, st4, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st4.Warmed != 1 || st4.Restored != len(loads)-1 {
		t.Fatalf("version-4 entry: warmed %d / restored %d, want 1 / %d", st4.Warmed, st4.Restored, len(loads)-1)
	}
	for i := range loads {
		if fourth[i] != classic[i] {
			t.Fatalf("load %.2f after a version-4 entry: %+v != %+v", loads[i], fourth[i], classic[i])
		}
	}
	if _, st5, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt); err != nil || st5.Restored != len(loads) {
		t.Fatalf("after migration: restored %d points (%v), want %d", st5.Restored, err, len(loads))
	}
}

// TestSweepPointInPlace pins the one path every point takes: whether the
// point warms from cycle 0, warms and writes its checkpoint (then measures on
// the very network it snapshotted, route caches warm), or resumes that
// checkpoint, the window runs in place and the row — for a job set, the
// aggregate and every per-job row — is the cold point's, which for a pattern
// is RunSteady's, field for field. Across pool widths, with a fault schedule
// that straddles the warm-up boundary, and with the phase sink on (called
// once, covering exactly the window).
func TestSweepPointInPlace(t *testing.T) {
	const warmup, measure = 300, 400
	jobs := testWorkload(t)
	for _, workers := range []int{0, 4} {
		for _, faulted := range []bool{false, true} {
			for _, w := range []*Workload{nil, &jobs} {
				cfg := warmTestConfig()
				cfg.Workers = workers
				if faulted {
					cfg.Faults = []Fault{
						{Cycle: 150, Kind: FaultLink, Router: 0, Port: 5},
						{Cycle: 350, Kind: FaultRouter, Router: 7},
					}
				}
				r := Resolved{Config: cfg, Pattern: Uniform(), Jobs: w, Warmup: warmup, Measure: measure}
				want, err := r.Run(0.6, SweepOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if w == nil {
					if classic, err := RunSteady(cfg, Uniform(), 0.6, warmup, measure); err != nil || classic != want.SteadyResult {
						t.Fatalf("cold point %+v, RunSteady %+v (%v)", want.SteadyResult, classic, err)
					}
				} else if len(want.Jobs) != len(w.Jobs)+1 {
					t.Fatalf("job-set point carries %d job rows, want %d", len(want.Jobs), len(w.Jobs)+1)
				}
				for _, timed := range []bool{false, true} {
					dir := t.TempDir()
					for _, step := range []struct {
						name     string
						opt      SweepOptions
						restored bool
					}{
						{"cold", SweepOptions{}, false},
						{"cold+checkpoint", SweepOptions{CheckpointDir: dir}, false},
						{"restored", SweepOptions{RestoreDir: dir}, true},
					} {
						var sunk []PhaseNanos
						if timed {
							step.opt.PhaseSink = func(ph PhaseNanos) { sunk = append(sunk, ph) }
						}
						got, err := r.Run(0.6, step.opt)
						if err != nil {
							t.Fatal(err)
						}
						id := fmt.Sprintf("workers=%d faulted=%v jobs=%v timed=%v %s", workers, faulted, w != nil, timed, step.name)
						if got.SteadyResult != want.SteadyResult || !slices.Equal(got.Jobs, want.Jobs) {
							t.Errorf("%s: row diverged from the cold point:\n got  %+v %+v\n want %+v %+v", id, got.SteadyResult, got.Jobs, want.SteadyResult, want.Jobs)
						}
						if got.Restored != step.restored {
							t.Errorf("%s: restored = %v, want %v", id, got.Restored, step.restored)
						}
						if timed && (len(sunk) != 1 || sunk[0].Cycles != measure) {
							t.Errorf("%s: phase sink got %+v, want one breakdown of %d cycles", id, sunk, measure)
						}
					}
					if files, _ := os.ReadDir(dir); len(files) != 1 {
						t.Errorf("checkpoint directory holds %d entries, want the one warm snapshot", len(files))
					}
				}
			}
		}
	}
}

// TestSweepPointOwnsOnePool: a Workers=4 point runs on one network — one
// resident pool while it lives (a forked measurement would hold two), none
// once it returns.
func TestSweepPointOwnsOnePool(t *testing.T) {
	cfg := warmTestConfig()
	cfg.Workers = 4
	pool := cfg.PoolWidth() - 1 // goroutines a network parks besides its caller
	// Settle the baseline: a goroutine of the previous test can be past its
	// Wait but not yet gone, and counting it makes every want below one too
	// high. Take the count once it reads the same across five 1 ms sleeps.
	before := runtime.NumGoroutine()
	for same, i := 0, 0; same < 5 && i < 200; i++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == before {
			same++
		} else {
			before, same = n, 0
		}
	}
	stop, done := make(chan struct{}), make(chan int)
	go func() { // samples the goroutine count while the point runs
		peak := 0
		for {
			select {
			case <-stop:
				done <- peak
				return
			default:
				peak = max(peak, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}
	}()
	atSink := 0
	opt := SweepOptions{CheckpointDir: t.TempDir(), PhaseSink: func(PhaseNanos) { atSink = runtime.NumGoroutine() }}
	if _, err := (Resolved{Config: cfg, Pattern: Uniform(), Warmup: 300, Measure: 2000}).Run(0.6, opt); err != nil {
		t.Fatal(err)
	}
	close(stop)
	peak := <-done
	if want := before + 1 + pool; atSink != want || peak > want {
		t.Errorf("goroutines: %d at the end of the window, peak %d, want %d (test + sampler + one pool of %d)", atSink, peak, want, pool)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond) // exiting workers are past Wait but may not be gone yet
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines left behind by a closed point", after-before)
	}
}

// TestWarmSnapshotNamePinned holds the warm-cache file name of one fixed
// point to the literal recorded at the commit before the sweep drivers were
// folded into one point runner: a -restore directory (or sweepd warm dir)
// written by an earlier build must keep hitting. The name does not depend on
// the engine digest — a physics change makes the file fail to restore, not
// change its name.
func TestWarmSnapshotNamePinned(t *testing.T) {
	name, err := warmSnapshotName(warmTestConfig(), Uniform().Name(), 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := "warm-2761de8e36cc3afc.ofarsnap"; name != want {
		t.Fatalf("warm snapshot name %s, recorded %s — existing warm caches would miss", name, want)
	}
}

// TestSimulatorSnapshotForkRestore exercises the public Simulator wrappers:
// fork and snapshot/restore both reproduce the step-level trajectory.
func TestSimulatorSnapshotForkRestore(t *testing.T) {
	cfg := warmTestConfig()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.SetTraffic(Uniform(), 0.5)
	sim.Run(200)

	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fork, err := sim.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()

	restored, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.SetTraffic(Uniform(), 0.5)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	sim.Run(200)
	fork.Run(200)
	restored.Run(200)
	if a, b := sim.Stats().Delivered, fork.Stats().Delivered; a != b {
		t.Fatalf("fork delivered %d packets, original %d", b, a)
	}
	if a, b := sim.Stats().Delivered, restored.Stats().Delivered; a != b {
		t.Fatalf("restored delivered %d packets, original %d", b, a)
	}
	var s1, s2 bytes.Buffer
	if err := sim.Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("restored simulator's trajectory diverged from the original")
	}
}
