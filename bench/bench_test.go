package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ofar"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 90, 9}, // not the maximum: ceil(0.9*10) = rank 9
		{ten, 100, 10},
		{ten, 50, 5},
		{ten, 1, 1},
		{[]float64{2, 1}, 50, 1}, // the median of two is the lower one
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {39, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Span: 0, Parent: -1, Layer: "a", StartNS: 0, EndNS: 100},
		{Span: 1, Parent: 0, Layer: "b", StartNS: 10, EndNS: 40},
		{Span: 2, Parent: 0, Layer: "b", StartNS: 30, EndNS: 60}, // overlaps span 1: the union covers 10..60
		{Span: 3, Parent: 2, Layer: "c", StartNS: 35, EndNS: 45},
		{Span: 4, Parent: 0, Layer: "c", StartNS: 90, EndNS: 120}, // runs past its parent: clipped to 90..100
	}
	got := selfTimes(spans)
	want := map[string]int64{"a": 100 - 50 - 10, "b": 30 + (30 - 10), "c": 10 + 30}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of layer %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	s := tr.begin(tr.newOp(), rootSpan, "x", "y")
	tr.end(s, 1)
	tr.add(0, s, "x", "z", 0, 1, 1)
	if s != -1 {
		t.Errorf("nil tracer returned span %d", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g, want 1, 3", q1, q3)
	}
}

func TestJudgeRule(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + by
		}
		return out
	}
	for _, c := range []struct {
		name     string
		old, new []float64
		d        metricDef
		want     string
	}{
		{"clear gain", base, shift(10), higher, "gain"},
		{"wins every pair but by less than the parent's spread", base, shift(0.5), higher, "unchanged"},
		{"regression beyond the bound", base, shift(-15), higher, "regression"},
		{"worse but within the bound", base, shift(-5), higher, "unchanged"},
		{"lower is better: a drop is a gain", base, shift(-10), lower, "gain"},
		{"lower is better: a rise beyond the bound regresses", base, shift(30), lower, "regression"},
		{"too few pairs", base[:9], shift(10)[:9], higher, "too few pairs"},
		{"wins only 8 of 10", base, []float64{110, 111, 109, 110, 112, 108, 110, 111, 90, 90}, higher, "unchanged"},
		{"parent spread wider than the bound", []float64{100, 140, 80, 120, 60, 100, 150, 70, 130, 90}, []float64{101, 139, 81, 119, 61, 99, 151, 69, 131, 89}, higher, "unresolved"},
	} {
		if got := judge(c.old, c.new, c.d); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	// Ties count for neither side.
	if v := judge(base, base, higher); v.Wins != 0 || v.Losses != 0 {
		t.Errorf("identical samples: %d wins, %d losses", v.Wins, v.Losses)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the harness tables; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better: %+v", d)
	}
}

func TestFixtureCheck(t *testing.T) {
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	engine := fmt.Sprintf("%016x", ofar.EngineDigest())
	run := func(pinnedEngine, fact string, seed uint64) *outcome {
		expectedJSON = []byte(`{"engine_digest":"` + pinnedEngine + `","seed":1,"workloads":{"w":{"throughput":"0.5"}}}`)
		o := newOutcome()
		o.attempted = 1
		o.facts["throughput"] = fact
		checkExpected("w", &runCtx{seed: seed}, o)
		return o
	}
	if o := run(engine, "0.5", 1); !o.correct() || len(o.checks) != 1 {
		t.Errorf("matching facts: checks %+v", o.checks)
	}
	if o := run(engine, "0.6", 1); o.correct() {
		t.Error("facts that moved under an unchanged EngineDigest must fail the run")
	}
	if o := run("0000000000000000", "0.6", 1); !o.correct() || len(o.checks) != 0 || !strings.Contains(o.notes[0], "PHYSICS CHANGED") {
		t.Errorf("a moved EngineDigest must be reported, not failed: checks %+v notes %v", o.checks, o.notes)
	}
	if o := run(engine, "0.6", 2); len(o.checks) != 0 {
		t.Error("the fixture is pinned for seed 1 only")
	}
}

// TestQuickPass runs every workload shrunk, timed and traced, with all checks
// on: every metric named in BENCHMARK.json must be emitted, and the simulated
// facts must agree between the two runs and between the serial and sharded
// saturation workloads.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten small simulations")
	}
	facts := map[string]map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			ctx := &runCtx{seed: 7, seconds: 0.1, quick: true, outDir: t.TempDir()}
			defs := endToEnd
			if traced {
				ctx.tr, defs = newTracer(time.Now()), perLayer
			}
			rec, err := runOne(&w, ctx)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Fatalf("%s traced=%v: result %+v", w.Name, traced, rec.Result)
			}
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if d := diffFacts(rec.Facts, facts[w.Name]); d != "" {
					t.Errorf("%s: traced run's simulated facts differ from the timed run's: %s", w.Name, d)
				}
				if _, err := os.Stat(ctx.outDir + "/" + w.Name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if len(rec.Layers) == 0 {
					t.Errorf("%s: no layer self times", w.Name)
				}
			} else {
				facts[w.Name] = rec.Facts
			}
		}
	}
	if d := diffFacts(facts["h6-adv-sat-par"], facts["h6-adv-sat"]); d != "" {
		t.Errorf("the sharded saturation workload does not reproduce the serial one: %s", d)
	}
}
