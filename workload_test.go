package ofar

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ofar/internal/network"
)

// testWorkload is the shared four-kind job mix: 30 of the h=2 network's 72
// nodes are occupied, the rest offer light background traffic.
func testWorkload(t *testing.T) Workload {
	t.Helper()
	w, err := parseWorkload("stencil:2x2x2@0.3,a2a:8@0.4,ring:8@0.2,ps:6@0.3")
	if err != nil {
		t.Fatal(err)
	}
	w.Background = 0.1
	return w
}

func TestParseWorkload(t *testing.T) {
	w, err := parseWorkload("stencil:2x3x4@0.25,a2a:16@0.5,ring:8@0.1:100-900,ps:5@0.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(w.Jobs))
	}
	if w.Jobs[0].Kind != "stencil" || w.Jobs[0].Tasks != 24 || w.Jobs[0].Dims != [3]int{2, 3, 4} {
		t.Errorf("stencil parsed as %+v", w.Jobs[0])
	}
	if w.Jobs[2].Start != 100 || w.Jobs[2].End != 900 {
		t.Errorf("lifetime parsed as %d-%d, want 100-900", w.Jobs[2].Start, w.Jobs[2].End)
	}
	if w.Jobs[1].Load != 0.5 || w.Jobs[3].Tasks != 5 {
		t.Errorf("a2a/ps parsed as %+v / %+v", w.Jobs[1], w.Jobs[3])
	}

	for _, bad := range []string{
		"",                         // empty
		"warp:8@0.5",               // unknown kind
		"a2a:8",                    // missing load
		"a2a:0@0.5",                // zero size
		"a2a:8@-0.1",               // negative load
		"stencil:4x4@0.3",          // 2-D grid
		"stencil:2x0x2@0.3",        // zero dimension
		"ring:8@0.2:500",           // lifetime missing end
		"ring:8@0.2:900-100",       // end before start
		"ps:6@0.3:extra:junk:junk", // too many fields
	} {
		if _, err := parseWorkload(bad); err == nil {
			t.Errorf("parseWorkload(%q) accepted, want error", bad)
		}
	}
}

// TestWorkloadNamePinsKnobs: the canonical name is a cache key, so every
// traffic-changing knob must show up in it.
func TestWorkloadNamePinsKnobs(t *testing.T) {
	base := testWorkload(t)
	seen := map[string]string{}
	add := func(label string, w Workload) {
		n := w.Name()
		for prev, pn := range seen {
			if pn == n {
				t.Errorf("%s and %s share the name %q", label, prev, n)
			}
		}
		seen[label] = n
	}
	add("base", base)
	random := base
	random.RandomMap = true
	add("random-map", random)
	bg := base
	bg.Background = 0.25
	add("background", bg)
	windowed := base
	windowed.Jobs = append([]JobSpec(nil), base.Jobs...)
	windowed.Jobs[1].Start, windowed.Jobs[1].End = 100, 900
	add("lifetime", windowed)
	load := base
	load.Jobs = append([]JobSpec(nil), base.Jobs...)
	load.Jobs[0].Load = 0.35
	add("job-load", load)
	if !strings.HasPrefix(base.Name(), "JOBS[") {
		t.Errorf("name %q lacks the JOBS[ prefix", base.Name())
	}
}

// TestJobSetBitIdentityMatrix: a job-set run produces the same grant digest
// under every engine variant — worker pool and route cache on or off.
func TestJobSetBitIdentityMatrix(t *testing.T) {
	w := testWorkload(t)
	run := func(mutate func(*Config)) (uint64, PointResult) {
		cfg := DefaultConfig(2)
		if mutate != nil {
			mutate(&cfg)
		}
		res := record(t, Resolved{Config: cfg, Jobs: &w, Warmup: 400, Measure: 800}, 1.0, SweepOptions{})
		return res.Digest, res
	}
	baseDigest, baseRes := run(nil)
	if baseDigest == 0 {
		t.Fatal("grant digest is zero — digest not enabled?")
	}
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers4", func(c *Config) { c.Workers = 4 }},
		{"nocache", func(c *Config) { c.DisableRouteCache = true }},
	}
	for _, v := range variants {
		digest, res := run(v.mutate)
		if digest != baseDigest {
			t.Errorf("%s: grant digest %016x differs from serial %016x", v.name, digest, baseDigest)
		}
		if res.Delivered != baseRes.Delivered {
			t.Errorf("%s: delivered %d differs from serial %d", v.name, res.Delivered, baseRes.Delivered)
		}
		for j := range res.Jobs {
			if res.Jobs[j] != baseRes.Jobs[j] {
				t.Errorf("%s: job %s row differs: %+v vs %+v", v.name, res.Jobs[j].Job, res.Jobs[j], baseRes.Jobs[j])
			}
		}
	}
}

// record runs r's point at load with recording on, failing the test on an
// error or an empty trace.
func record(t *testing.T, r Resolved, load float64, opt SweepOptions) PointResult {
	t.Helper()
	opt.Record = true
	res, err := r.Run(load, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || res.Digest == 0 {
		t.Fatalf("recording returned %d trace records, digest %016x", len(res.Trace), res.Digest)
	}
	return res
}

// TestTraceRecordReplayDigest: replaying a recorded trace through a fresh
// network reproduces the recording run's grant digest bit-identically — for
// a synthetic pattern, for a job set, under a fault schedule, and for a
// recording pointed at a populated warm cache, which must warm from cycle 0
// instead of restoring (and still write its checkpoint).
func TestTraceRecordReplayDigest(t *testing.T) {
	replay := func(t *testing.T, cfg Config, res PointResult) {
		t.Helper()
		rres, rdigest, err := ReplayTrace(cfg, res.Trace, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		if rdigest != res.Digest {
			t.Errorf("replay digest %016x, recorded %016x", rdigest, res.Digest)
		}
		if rres.Delivered != res.Delivered || rres.Dropped != res.Dropped || rres.AvgLatency != res.AvgLatency {
			t.Errorf("replay stats differ: %+v vs %+v", rres, res.SteadyResult)
		}
	}
	t.Run("pattern", func(t *testing.T) {
		cfg := DefaultConfig(2)
		replay(t, cfg, record(t, Resolved{Config: cfg, Pattern: Adv(2), Warmup: 400, Measure: 800}, 0.4, SweepOptions{}))
	})
	t.Run("jobs-faulted", func(t *testing.T) {
		cfg := DefaultConfig(2)
		fs, err := network.ParseFaults("link@300:3:2")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fs
		w := testWorkload(t)
		replay(t, cfg, record(t, Resolved{Config: cfg, Jobs: &w, Warmup: 400, Measure: 800}, 1.0, SweepOptions{}))
	})
	t.Run("restore-dir", func(t *testing.T) {
		cfg := DefaultConfig(2)
		r := Resolved{Config: cfg, Pattern: Adv(2), Warmup: 400, Measure: 800}
		dir := t.TempDir()
		cache := SweepOptions{CheckpointDir: dir, RestoreDir: dir}
		cold, err := r.Run(0.4, cache)
		if err != nil {
			t.Fatal(err)
		}
		res := record(t, r, 0.4, cache)
		if res.Restored {
			t.Fatal("a recording restored its warm state; its trace would miss the warm-up")
		}
		if res.SteadyResult != cold.SteadyResult {
			t.Errorf("recorded row %+v, cold row %+v", res.SteadyResult, cold.SteadyResult)
		}
		replay(t, cfg, res)
		// The checkpoint the recording rewrote still restores to the same row.
		if again, err := r.Run(0.4, cache); err != nil || !again.Restored || again.SteadyResult != cold.SteadyResult {
			t.Errorf("restore after the recording: restored=%v err=%v, row %+v, want %+v", again.Restored, err, again.SteadyResult, cold.SteadyResult)
		}
	})
}

// TestReplayTraceRejectsForeignPacketSize: every packet of a network has
// Config.PacketSize phits, so a trace record of another size is refused,
// naming the record, where it used to replay as a PacketSize packet. A
// recorded trace, all of whose records have that size, replays to its
// recording's digest.
func TestReplayTraceRejectsForeignPacketSize(t *testing.T) {
	cfg := DefaultConfig(2)
	res := record(t, Resolved{Config: cfg, Pattern: Adv(2), Warmup: 200, Measure: 300}, 0.4, SweepOptions{})
	if _, digest, err := ReplayTrace(cfg, res.Trace, 200, 300); err != nil || digest != res.Digest {
		t.Fatalf("recorded trace: digest %016x, err %v; want %016x", digest, err, res.Digest)
	}
	foreign := []TraceRecord{{Cycle: 5, Src: 0, Dst: 9, Size: 16}}
	_, _, err := ReplayTrace(cfg, foreign, 200, 300)
	if want := "trace: record 0 is a 16-phit packet, this network's packets are 8 phits"; err == nil || err.Error() != want {
		t.Fatalf("16-phit record at S=8: err %v, want %q", err, want)
	}
	recs := slices.Clone(res.Trace)
	recs[len(recs)/2].Size = 16
	if _, _, err := ReplayTrace(cfg, recs, 200, 300); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", len(recs)/2)) {
		t.Fatalf("recorded trace with one 16-phit record: err %v, want it named", err)
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	recs := record(t, Resolved{Config: DefaultConfig(2), Pattern: Uniform(), Warmup: 100, Measure: 200}, 0.3, SweepOptions{}).Trace
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := SaveTrace(path, recs); err != nil {
		t.Fatal(err)
	}
	got, engine, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if engine != EngineDigest() {
		t.Errorf("engine digest %016x, want %016x", engine, EngineDigest())
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, wrote %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

// TestJobStatsConservation: per-job counters partition the aggregates
// exactly — generated = delivered + dropped + in flight per job and summed,
// under faults and across the engine variants.
func TestJobStatsConservation(t *testing.T) {
	w := testWorkload(t)
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"serial", nil},
		{"workers4", func(c *Config) { c.Workers = 4 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			fs, err := network.ParseFaults("link@400:3:2,router@700:9")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fs
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			gen, err := w.generator(sim.Topology(), cfg, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			sim.Network().SetGenerator(gen)
			sim.Run(1500)
			st := sim.Stats()
			if st.Jobs() != len(w.Jobs)+1 { // +1 background slot
				t.Fatalf("got %d job slots, want %d", st.Jobs(), len(w.Jobs)+1)
			}
			var gens, dels, drops int64
			for j := 0; j < st.Jobs(); j++ {
				g, d, dr := st.JobCounts(j)
				if d+dr > g {
					t.Errorf("job %s: delivered %d + dropped %d exceeds generated %d", st.JobName(j), d, dr, g)
				}
				gens, dels, drops = gens+g, dels+d, drops+dr
			}
			if gens != st.Generated || dels != st.Delivered || drops != st.Dropped {
				t.Errorf("per-job sums %d/%d/%d != aggregate %d/%d/%d",
					gens, dels, drops, st.Generated, st.Delivered, st.Dropped)
			}
			if st.Dropped == 0 {
				t.Error("fault schedule dropped nothing — faults not exercised")
			}
			if err := sim.Network().CheckConservation(); err != nil {
				t.Errorf("conservation: %v", err)
			}
		})
	}
}

// TestJobSetSnapshotRoundTrip: a mid-run snapshot of a job-set simulation
// restores bit-identically — per-job emission progress, lifetime windows and
// per-job statistics included.
func TestJobSetSnapshotRoundTrip(t *testing.T) {
	w, err := parseWorkload("stencil:2x2x2@0.3,a2a:8@0.4,ring:8@0.2:200-600,ps:6@0.3")
	if err != nil {
		t.Fatal(err)
	}
	w.Background = 0.1
	cfg := DefaultConfig(2)
	mk := func() *Simulator {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := w.generator(sim.Topology(), cfg, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		sim.Network().SetGenerator(gen)
		return sim
	}
	sim := mk()
	defer sim.Close()
	sim.Run(400) // inside the ring job's lifetime window

	var snap bytes.Buffer
	if err := sim.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	sim.Run(400)
	restored.Run(400)
	if a, b := sim.Stats().Delivered, restored.Stats().Delivered; a != b {
		t.Fatalf("restored delivered %d, original %d", b, a)
	}
	for j := 0; j < sim.Stats().Jobs(); j++ {
		g1, d1, r1 := sim.Stats().JobCounts(j)
		g2, d2, r2 := restored.Stats().JobCounts(j)
		if g1 != g2 || d1 != d2 || r1 != r2 {
			t.Errorf("job %s diverged: %d/%d/%d vs %d/%d/%d",
				sim.Stats().JobName(j), g1, d1, r1, g2, d2, r2)
		}
	}
	var s1, s2 bytes.Buffer
	if err := sim.Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Error("post-run snapshots differ — restore was not bit-identical")
	}
}

// TestRunInterferenceSmoke: interference is a shared job-set experiment plus
// one experiment per job alone, the other jobs' loads zeroed: each alone run
// keeps the job's row (same placement, same label) and gives a positive p99
// slowdown.
func TestRunInterferenceSmoke(t *testing.T) {
	run := func(jobs string) []JobResult {
		r, err := Experiment{H: 2, Jobs: jobs, Warmup: 300, Measure: 600}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(1.0, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs
	}
	shared := run("a2a:12@0.5,ring:12@0.2")
	for i, jobs := range []string{"a2a:12@0.5,ring:12@0", "a2a:12@0,ring:12@0.2"} {
		alone := run(jobs)
		if alone[i].Job != shared[i].Job {
			t.Errorf("alone run %d labeled %q, shared row is %q", i, alone[i].Job, shared[i].Job)
		}
		if slowdown := shared[i].P99Latency / alone[i].P99Latency; !(slowdown > 0) {
			t.Errorf("job %s: non-positive p99 slowdown %v (alone p99 %v)", shared[i].Job, slowdown, alone[i].P99Latency)
		}
	}
}
