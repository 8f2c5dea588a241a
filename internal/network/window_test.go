package network

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ofar/internal/simcore"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// windowCase is one configuration of the window differential: the network
// and what attaches its traffic and observers (called once per network), and
// optionally the grant digest and snapshot checksum the run must end on.
type windowCase struct {
	name         string
	cfg          Config
	setup        func(n *Network)
	digest, snap uint64
}

// bernoulliSetup attaches uniform Bernoulli traffic at the given load.
func bernoulliSetup(load float64) func(*Network) {
	return func(n *Network) {
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, n.Cfg.PacketSize))
	}
}

// expectSameRun is expectSameState plus everything the snapshot image does
// not carry: every Stats field, what a streamLog observer collected, the
// trace recorder, the in-flight count and the congestion stalls.
func expectSameRun(t *testing.T, label string, a, b *Network) {
	t.Helper()
	expectSameState(t, label, a, b)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("%s: statistics differ:\n%+v\n%+v", label, *a.Stats, *b.Stats)
	}
	if la, ok := a.obs.(*streamLog); ok && !reflect.DeepEqual(la, b.obs) {
		t.Fatalf("%s: observed streams differ", label)
	}
	if a.rec != nil && !reflect.DeepEqual(a.rec.Records(), b.rec.Records()) {
		t.Fatalf("%s: trace recorder streams differ", label)
	}
	if a.inFlight != b.inFlight || a.CongestionStalls != b.CongestionStalls || a.Now() != b.Now() {
		t.Fatalf("%s: in-flight %d/%d, stalls %d/%d, cycle %d/%d", label,
			a.inFlight, b.inFlight, a.CongestionStalls, b.CongestionStalls, a.Now(), b.Now())
	}
}

// checkWindowsMatchStep runs c three ways — stepped a cycle at a time (the
// reference), and in Run chunks on the caller and on a 4-worker pool forced
// on — and compares after every chunk.
func checkWindowsMatchStep(t *testing.T, c windowCase, chunks []int) {
	t.Helper()
	mk := func(workers int) *Network {
		cfg := c.cfg
		cfg.Workers = workers
		n := mustPoolNet(t, cfg)
		n.EnableGrantDigest()
		c.setup(n)
		return n
	}
	ref, caller, pool := mk(1), mk(1), mk(4)
	for _, chunk := range chunks {
		for i := 0; i < chunk; i++ {
			ref.Step()
		}
		caller.Run(chunk)
		pool.Run(chunk)
		expectSameRun(t, fmt.Sprintf("%s: caller after Run(%d) to cycle %d", c.name, chunk, ref.Now()), ref, caller)
		expectSameRun(t, fmt.Sprintf("%s: pool after Run(%d) to cycle %d", c.name, chunk, ref.Now()), ref, pool)
	}
	d, _ := ref.GrantDigest()
	if d == fnvOffset {
		t.Fatalf("%s: nothing was granted", c.name)
	}
	if snap := simcore.Checksum64(snapshotBytes(t, ref)); c.snap != 0 && (d != c.digest || snap != c.snap) {
		t.Fatalf("%s: digest %#016x, snapshot %#016x; pinned %#016x, %#016x", c.name, d, snap, c.digest, c.snap)
	}
}

// TestRunWindowsMatchStep is the differential gate of the lookahead windows:
// Run in chunks of 1, 7, L−1, L, L+1 and 500 cycles — a window cut short,
// the longest one, and windows straddling every chunk boundary — must leave
// a network bit-identical to one stepped a cycle at a time, on the caller and
// on the pool: grant digest, every router's StateFingerprint, every Stats
// field and the snapshot image. The matrix is h ∈ {2, 3, 6} × all seven
// routings × loads {0.05, 0.5, 0.9}; -short keeps h=2, which still walks the
// pool's window path under the race detector. The extra cases take the
// windows through faults (one-cycle windows after a router dies), Burst and
// JobSet sources (full windows, on the caller and on the pool), partial and
// embedded-ring networks and every observer.
func TestRunWindowsMatchStep(t *testing.T) {
	L := DefaultConfig(2).GlobalLatency
	chunks := []int{1, 7, L - 1, L, L + 1, 500}
	hs := []int{2, 3, 6}
	if testing.Short() {
		hs = hs[:1]
	}
	for _, h := range hs {
		for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
			for _, load := range []float64{0.05, 0.5, 0.9} {
				c := windowCase{name: fmt.Sprintf("h%d/%s/load%.2f", h, rt, load), cfg: DefaultConfig(h).WithRouting(rt), setup: bernoulliSetup(load)}
				t.Run(c.name, func(t *testing.T) { checkWindowsMatchStep(t, c, chunks) })
			}
		}
	}

	faulted := DefaultConfig(3)
	faulted.Faults = []Fault{
		{Cycle: 120, Kind: FaultLink, Router: 0, Port: faulted.P + faulted.A - 1}, // a global link
		{Cycle: 250, Kind: FaultLink, Router: 7, Port: faulted.P},                 // a local link
		{Cycle: 400, Kind: FaultRouter, Router: 20},                               // one-cycle windows from here
	}
	partial := DefaultConfig(3)
	partial.Groups = 5
	embedded := DefaultConfig(3)
	embedded.Ring, embedded.NumRings = RingEmbedded, 2
	// A local link as long as a packet: the credit a drain returns at cycle
	// s and the drain a grant schedules at s both fire at s+8, so one slot
	// holds insertions of both phases of one cycle. Windows and the stepped
	// reference share the merge, so its order is also pinned against the
	// engine before lookahead windows, which put each event into the wheel
	// as it was made: the digest it ended this run on, and the checksum of
	// that state's snapshot (re-recorded at format version 5).
	shared := DefaultConfig(3)
	shared.LocalLatency = shared.PacketSize
	extras := []windowCase{
		{name: "faults", cfg: faulted, setup: bernoulliSetup(0.5)},
		{name: "phases-share-slots", cfg: shared, setup: bernoulliSetup(0.7), digest: 0x46ca793db3d68a9c, snap: 0x9e58bb3f9137fefc},
		{name: "burst", cfg: DefaultConfig(3), setup: func(n *Network) {
			n.SetGenerator(traffic.NewBurst(traffic.NewAdv(n.Topo, 3), 6, n.Topo.Nodes))
		}},
		{name: "jobset", cfg: DefaultConfig(3), setup: func(n *Network) {
			js, err := traffic.NewJobSet(n.Topo, traffic.JobSetConfig{
				Jobs: []traffic.JobSpec{
					{Kind: traffic.JobStencil, Nodes: 27, Load: 0.4, Dims: [3]int{3, 3, 3}},
					{Kind: traffic.JobAll2All, Nodes: 40, Load: 0.5},
				},
				Background: 0.2, Seed: 3, PacketSize: n.Cfg.PacketSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.SetGenerator(js)
		}},
		{name: "partial-groups", cfg: partial, setup: bernoulliSetup(0.6)},
		{name: "embedded-rings", cfg: embedded, setup: func(n *Network) {
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 3), 0.9, n.Cfg.PacketSize))
		}},
		{name: "observers", cfg: DefaultConfig(3), setup: func(n *Network) {
			bernoulliSetup(0.5)(n)
			n.obs = newStreamLog(3000)
			n.SetTraceRecorder(&trace.Recorder{})
			n.Stats.EnableSeries(50)
			n.Stats.EnableUtilization(len(n.Routers), len(n.Routers[0].Out))
		}},
	}
	for _, c := range extras {
		t.Run(c.name, func(t *testing.T) { checkWindowsMatchStep(t, c, chunks) })
	}
}

// TestWindowLookahead: the window cap is the shortest latency between groups
// as wired — GlobalLatency at the paper's parameters, whatever the escape
// ring — follows the wiring rather than the configuration, is 1 while a
// router is dead, and is derived again from the re-formed ring after a
// router fault splices it.
func TestWindowLookahead(t *testing.T) {
	for _, h := range []int{2, 3, 6} {
		for _, ring := range []RingMode{RingPhysical, RingEmbedded, RingNone} {
			cfg := DefaultConfig(h)
			cfg.Ring = ring
			if ring == RingNone {
				cfg = cfg.WithRouting(MIN)
			}
			n := mustNet(t, cfg)
			if n.lookahead != cfg.GlobalLatency {
				t.Errorf("h=%d %v ring: lookahead %d, want the global latency %d", h, ring, n.lookahead, cfg.GlobalLatency)
			}
		}
	}

	cfg := DefaultConfig(2)
	cfg.GlobalLatency = 37
	n := mustNet(t, cfg)
	if n.lookahead != 37 {
		t.Fatalf("global latency 37: lookahead %d", n.lookahead)
	}
	gp := n.Topo.GlobalPortBase()
	n.Routers[5].Out[gp].Latency = 23 // one faster inter-group link
	if n.deriveLookahead(); n.lookahead != 23 {
		t.Fatalf("after rewiring one global link to 23 cycles: lookahead %d", n.lookahead)
	}

	cfg = DefaultConfig(2)
	w := 6
	cfg.Faults = []Fault{{Cycle: 50, Kind: FaultRouter, Router: w}}
	n = mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	before := n.Rings[0]
	n.Run(60)
	if n.Rings[0] == before || n.Rings[0].Pos(w) >= 0 {
		t.Fatal("the router fault did not re-form the physical ring")
	}
	if n.lookahead != 1 {
		t.Fatalf("lookahead %d with a dead router, want 1", n.lookahead)
	}
	n.deadRouter[w] = false // derive from the re-formed wiring alone
	if n.deriveLookahead(); n.lookahead != cfg.GlobalLatency {
		t.Fatalf("re-formed ring: lookahead %d, want %d", n.lookahead, cfg.GlobalLatency)
	}
}

// TestWindowLogsHoldNoPackets: between windows — and so after Restore — the
// logs, outboxes and rings are empty, and their records name packets only
// by handle, so a window never keeps recycled or restored-over packets
// alive.
func TestWindowLogsHoldNoPackets(t *testing.T) {
	n := snapNet(t, snapCfg(1), 0.9)
	n.Run(250)
	snap := snapshotBytes(t, n)
	n.Run(130)
	if err := n.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	for g := range n.gs {
		s := &n.gs[g]
		if len(s.pre)+len(s.out)+len(s.fx)+len(s.gen)+len(s.grs) != 0 {
			t.Fatalf("group %d: window logs not empty between windows", g)
		}
		for _, slot := range s.ring {
			if len(slot) != 0 {
				t.Fatalf("group %d: ring not empty between windows", g)
			}
		}
	}
	for _, rec := range []any{fxRec{}, genRec{}, grantRec{}, schedEv{}, event{}} {
		if typ := reflect.TypeOf(rec); holdsPointer(typ) {
			t.Errorf("a %v record holds a pointer", typ)
		}
	}
}

// TestPhaseTimingsUnderWindows: with timings on, the per-phase breakdown
// adds up to the wall time spent in Run (the windows' sampled laps only
// split it), counts every cycle, credits every phase that did work, and the
// run stays digest-identical to an untimed one — on the caller and on the
// pool, whose concurrent laps add up to more than the wall time.
func TestPhaseTimingsUnderWindows(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mk := func() *Network {
			cfg := DefaultConfig(3).WithRouting(PB)
			cfg.Workers = workers
			n := mustPoolNet(t, cfg)
			n.EnableGrantDigest()
			bernoulliSetup(0.5)(n)
			return n
		}
		timed, plain := mk(), mk()
		timed.EnablePhaseTimings()
		var wall time.Duration
		for _, chunk := range []int{300, 1, 57, 642} {
			t0 := time.Now()
			timed.Run(chunk)
			wall += time.Since(t0)
			plain.Run(chunk)
		}
		expectSameRun(t, fmt.Sprintf("workers=%d timed", workers), plain, timed)
		ph := timed.PhaseTimings()
		sum := time.Duration(ph.Faults + ph.Events + ph.Generate + ph.PB + ph.Routers)
		if ph.Cycles != 1000 || sum > wall || sum < wall*8/10 {
			t.Fatalf("workers=%d: %d cycles, phases add up to %v of %v in Run", workers, ph.Cycles, sum, wall)
		}
		if ph.Events <= 0 || ph.Generate <= 0 || ph.PB <= 0 || ph.Routers <= 0 {
			t.Fatalf("workers=%d: a phase that did work got no time: %+v", workers, ph)
		}
	}
}
