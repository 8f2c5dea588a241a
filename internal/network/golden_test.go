package network

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ofar/internal/trace"
	"ofar/internal/traffic"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenDoc is the serialized form of a run's event stream: the first
// goldenHead grant events verbatim, plus the FNV-1a digest and event count
// covering the *entire* stream (every grant and every delivery of the first
// Cycles cycles), so a refactor that changes any event anywhere —
// not just in the head — breaks byte-equality.
type goldenDoc struct {
	Network string       `json:"network"`
	Routing string       `json:"routing"`
	Seed    uint64       `json:"seed"`
	Load    float64      `json:"load"`
	Cycles  int          `json:"cycles"`
	Faults  []Fault      `json:"faults,omitempty"`
	Events  int64        `json:"events"`
	Digest  string       `json:"digest"`
	Head    []GrantEvent `json:"head"`
}

const goldenHead = 256

// goldenSpec pins one golden scenario: the dragonfly size, the traced
// window, the offered load and an optional fault schedule.
type goldenSpec struct {
	h      int
	cycles int
	load   float64
	faults []Fault
}

// goldenRun executes one engine variant of a golden scenario and returns the
// serialized event-stream document. snapAt > 0 additionally round-trips the
// run through Snapshot/Restore at that cycle: the first snapAt cycles run in
// one network, the rest in a freshly built network restored from its
// snapshot — the document must come out identical, which pins the
// checkpoint layer to the same golden contract as the engines.
func goldenRun(t *testing.T, spec goldenSpec, workers int, noCache bool, snapAt int) []byte {
	t.Helper()
	cfg := DefaultConfig(spec.h)
	cfg.Seed = 12345
	cfg.Workers = workers
	cfg.DisableRouteCache = noCache
	cfg.Faults = spec.faults
	attach := func(n *Network) {
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), spec.load, cfg.PacketSize))
	}
	// The pool is forced on for every window so the golden contract covers it
	// even on a single-P host. Run walks lookahead windows, so the goldens
	// also pin the window merge's serial order.
	n := mustPoolNet(t, cfg)
	attach(n)
	n.EnableGrantDigest()
	log := newStreamLog(goldenHead)
	n.obs = log
	if snapAt > 0 && snapAt < spec.cycles {
		n.Run(snapAt)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		m := mustPoolNet(t, cfg)
		attach(m)
		if err := m.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		m.obs = log // the head continues across the restore
		n = m
		n.Run(spec.cycles - snapAt)
	} else {
		n.Run(spec.cycles)
	}
	return goldenSerialize(t, n, log, cfg, spec)
}

// goldenReplayRun runs the serial scenario with a trace recorder attached,
// then re-injects the recorded packets through a fresh network driven by the
// TraceReplay generator. Replay determinism means the replayed event stream
// serializes to the very same golden document as the recording run.
func goldenReplayRun(t *testing.T, spec goldenSpec) []byte {
	t.Helper()
	cfg := DefaultConfig(spec.h)
	cfg.Seed = 12345
	cfg.Faults = spec.faults
	rec := &trace.Recorder{}
	n := mustNet(t, cfg)
	t.Cleanup(n.Close)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), spec.load, cfg.PacketSize))
	n.SetTraceRecorder(rec)
	n.Run(spec.cycles)

	m := mustNet(t, cfg)
	t.Cleanup(m.Close)
	gen, err := traffic.NewTraceReplay(rec.Records(), m.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	m.SetGenerator(gen)
	m.EnableGrantDigest()
	log := newStreamLog(goldenHead)
	m.obs = log
	m.Run(spec.cycles)
	return goldenSerialize(t, m, log, cfg, spec)
}

// goldenSerialize renders a finished run as its golden document: the digest
// from n, the head from the log that observed it.
func goldenSerialize(t *testing.T, n *Network, log *streamLog, cfg Config, spec goldenSpec) []byte {
	t.Helper()
	digest, events := n.GrantDigest()
	doc := goldenDoc{
		Network: fmt.Sprintf("h=%d p=%d a=%d groups=%d", cfg.H, cfg.P, cfg.A, n.Topo.G),
		Routing: string(cfg.Routing),
		Seed:    cfg.Seed,
		Load:    spec.load,
		Cycles:  spec.cycles,
		Faults:  spec.faults,
		Events:  events,
		Digest:  fmt.Sprintf("%016x", digest),
		Head:    log.grants,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// checkGolden compares every engine variant's serialized run — walked by the
// caller or the pool, route cache off, and mid-run snapshot/restore round
// trips — against the golden file, rewriting the file first when
// -update-golden is set (only the serial variant rewrites, so a divergence
// between variants still fails).
func checkGolden(t *testing.T, path string, spec goldenSpec) {
	t.Helper()
	base := goldenRun(t, spec, 0, false, 0)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(base))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	variants := []struct {
		name    string
		workers int
		noCache bool
		snapAt  int
	}{
		{name: "serial"},
		{name: "serial-nocache", noCache: true},
		{name: "workers4", workers: 4},
		{name: "workers8-nocache", workers: 8, noCache: true},
		{name: "snapshot-restore", snapAt: spec.cycles / 2},
		{name: "snapshot-restore-workers4", workers: 4, snapAt: spec.cycles / 2},
	}
	for _, v := range variants {
		got := base
		if v.workers != 0 || v.noCache || v.snapAt != 0 {
			got = goldenRun(t, spec, v.workers, v.noCache, v.snapAt)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from %s (len %d vs %d) — a behavioral change; "+
				"if intended, regenerate with -update-golden", v.name, path, len(got), len(want))
		}
	}
	if replay := goldenReplayRun(t, spec); !bytes.Equal(replay, want) {
		t.Errorf("trace-replay diverged from %s (len %d vs %d) — record/replay no longer "+
			"reproduces the event stream bit-identically", path, len(replay), len(want))
	}
}

// TestGoldenTraceH3 is the golden-trace regression gate: the first 2000
// cycles of grant/delivery events of a fixed-seed h=3 OFAR run, serialized
// to testdata/golden_h3.json, must match byte for byte — for the serial
// engine, the parallel engine, either with the route cache disabled, and a
// run restored mid-window from a snapshot. It guards future refactors of the
// router stage, the allocator, the idle-router early return, the RNG
// derivation order, the timing wheel and the checkpoint layer, not just the
// change that introduced it. Regenerate deliberately
// with `go test ./internal/network -run TestGoldenTrace -update-golden`.
func TestGoldenTraceH3(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per engine variant")
	}
	checkGolden(t, filepath.Join("testdata", "golden_h3.json"),
		goldenSpec{h: 3, cycles: 2000, load: 0.2})
}

// TestGoldenTraceH3LowLoad pins the same contract where idle routers
// dominate: at 5% load the overwhelming majority of router-cycles take
// Cycle's early return, and any router that returned early while it still had
// observable work would shift grants or deliveries and break byte-equality
// here.
func TestGoldenTraceH3LowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per engine variant")
	}
	checkGolden(t, filepath.Join("testdata", "golden_h3_low.json"),
		goldenSpec{h: 3, cycles: 2000, load: 0.05})
}

// TestGoldenTraceH3Faults pins the faulted event stream: the same h=3 OFAR
// run with one global link killed at cycle 500. The digest covers every
// grant, delivery and fault-drop (tag 2), so any change to the teardown
// ordering, the liveness masks or the degraded routing path breaks
// byte-equality — across all engine variants, including the snapshot round
// trip (whose restore point lands after the fault fires and must carry the
// post-teardown structure verbatim).
func TestGoldenTraceH3Faults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per engine variant")
	}
	faults, err := GlobalLinkFaults(DefaultConfig(3), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_h3_faults.json"),
		goldenSpec{h: 3, cycles: 2000, load: 0.2, faults: faults})
}

// TestGoldenTraceH6 pins a short window of the paper's full-size h=6 system
// (876 routers, 5256 nodes): radix-dependent code paths — port bitsets near
// their 23-port width, deeper VC fan-in, longer rings — are exercised at a
// scale the h=3 traces cannot reach. The window is short because each of the
// engine variants replays it.
func TestGoldenTraceH6(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 250 full-size h=6 cycles per engine variant")
	}
	checkGolden(t, filepath.Join("testdata", "golden_h6.json"),
		goldenSpec{h: 6, cycles: 250, load: 0.2})
}
