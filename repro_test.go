package ofar

import (
	"fmt"
	"testing"

	"ofar/internal/topology"
)

// Reproduction shape tests: these assert the qualitative results of the
// paper's evaluation section at a reduced scale (h=3: 342 nodes) so the
// full suite stays fast. Every run is a series of PaperFigures, resolved
// through Experiment.Resolve as cmd/experiments resolves it; only the loads
// and windows are the tests' own.

// figure returns the figure id of PaperFigures(h).
func figure(t *testing.T, h int, id string) Figure {
	t.Helper()
	for _, f := range PaperFigures(h, 2000) {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %q", id)
	return Figure{}
}

// series returns the series of f with the given label.
func series(t *testing.T, f Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s has no series %q", f.ID, label)
	return Series{}
}

// resolve returns the configuration and pattern of series s on pattern.
func resolve(t *testing.T, s Series, pattern string) (Config, PatternSpec) {
	t.Helper()
	e := s.Experiment
	e.Pattern = pattern
	r, err := e.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r.Config, r.Pattern
}

// steady runs series s on pattern at one offered load.
func steady(t *testing.T, s Series, pattern string, load float64) SteadyResult {
	t.Helper()
	cfg, ps := resolve(t, s, pattern)
	r, err := RunSteady(cfg, ps, load, 2000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFig3Shape: under uniform traffic OFAR saturates no lower than MIN and
// clearly above PB; latency at low load is competitive with MIN while PB
// pays for its misrouted packets.
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig3")
	sat := map[Routing]float64{}
	lat := map[Routing]float64{}
	for _, s := range f.Series {
		rt := Routing(s.Routing)
		sat[rt] = steady(t, s, f.Panels[0].Pattern, 1.0).Throughput
		lat[rt] = steady(t, s, f.Panels[0].Pattern, 0.1).AvgLatency
		t.Logf("%-7s UN: saturation %.3f, latency@0.1 %.1f", rt, sat[rt], lat[rt])
	}
	if sat[OFAR] < sat[MIN]-0.02 {
		t.Errorf("OFAR saturation %.3f below MIN %.3f", sat[OFAR], sat[MIN])
	}
	if sat[OFAR] < sat[PB] {
		t.Errorf("OFAR saturation %.3f below PB %.3f", sat[OFAR], sat[PB])
	}
	if lat[PB] < lat[MIN] {
		t.Errorf("PB latency %.1f below MIN %.1f (expected misroute penalty)", lat[PB], lat[MIN])
	}
	if lat[OFAR] > lat[PB] {
		t.Errorf("OFAR latency %.1f above PB %.1f", lat[OFAR], lat[PB])
	}
}

// TestFig4Shape: ADV+2 — OFAR saturates above PB and VAL; OFAR ≥ OFAR-L.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig4")
	sat := map[Routing]float64{}
	for _, s := range f.Series {
		rt := Routing(s.Routing)
		sat[rt] = steady(t, s, f.Panels[0].Pattern, 1.0).Throughput
		t.Logf("%-7s ADV+2: saturation %.3f", rt, sat[rt])
	}
	if sat[OFAR] <= sat[PB] || sat[OFAR] <= sat[VAL] {
		t.Errorf("OFAR %.3f must beat PB %.3f and VAL %.3f on ADV+2",
			sat[OFAR], sat[PB], sat[VAL])
	}
	if sat[OFAR] < sat[OFARL]-0.02 {
		t.Errorf("OFAR %.3f below OFAR-L %.3f", sat[OFAR], sat[OFARL])
	}
}

// TestFig5Shape: ADV+h — the paper's key result. Without local misrouting
// every mechanism is stuck near (or below) the 1/h local-link ceiling;
// OFAR's in-transit local misroute lifts throughput far above it, toward
// the 0.5 global-link bound.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig5")
	runs := append([]Series{series(t, figure(t, 3, "bounds"), string(MIN))}, f.Series...)
	sat := map[Routing]float64{}
	for _, s := range runs {
		rt := Routing(s.Routing)
		sat[rt] = steady(t, s, f.Panels[0].Pattern, 1.0).Throughput
		t.Logf("%-7s ADV+h: saturation %.3f", rt, sat[rt])
	}
	// MIN collapses to ~1/(a·p) (single global link for the whole group).
	if sat[MIN] > 0.1 {
		t.Errorf("MIN %.3f should collapse near 1/18", sat[MIN])
	}
	// OFAR clearly above everything else, and well above the 1/h=0.33 cap
	// region where VAL/PB/OFAR-L live.
	for _, rt := range []Routing{VAL, PB, OFARL} {
		if sat[OFAR] < sat[rt]+0.10 {
			t.Errorf("OFAR %.3f does not clearly beat %s %.3f", sat[OFAR], rt, sat[rt])
		}
	}
	if sat[OFAR] < 0.40 {
		t.Errorf("OFAR ADV+h saturation %.3f, want ≥ 0.40 (theoretical bound 0.5)", sat[OFAR])
	}
}

// TestFig7Shape: burst consumption — OFAR finishes faster than PB on every
// mix, and the full model beats its -L variant on average (§VI-C).
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig7")
	burst := func(label, pattern string) BurstResult {
		cfg, ps := resolve(t, series(t, f, label), pattern)
		r, err := burstPoint(cfg, ps, 40, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ofarFaster, total int
	var ratioSum float64
	for _, p := range f.Panels {
		pb, of := burst(string(PB), p.Pattern), burst(string(OFAR), p.Pattern)
		if !pb.Drained || !of.Drained {
			t.Fatalf("%s: burst not drained (pb=%v ofar=%v)", p.Pattern, pb.Drained, of.Drained)
		}
		ratio := float64(of.Cycles) / float64(pb.Cycles)
		ratioSum += ratio
		total++
		if of.Cycles < pb.Cycles {
			ofarFaster++
		}
		t.Logf("%-6s burst: OFAR %d vs PB %d cycles (ratio %.2f)", p.Pattern, of.Cycles, pb.Cycles, ratio)
	}
	if ofarFaster < total-1 {
		t.Errorf("OFAR faster on only %d/%d patterns", ofarFaster, total)
	}
	if avg := ratioSum / float64(total); avg > 0.95 {
		t.Errorf("average OFAR/PB burst ratio %.2f, want < 0.95 (paper: 0.695)", avg)
	}
}

// TestFig8Shape: physical and embedded escape rings perform equivalently
// (§VII) — the ring resolves deadlocks, it does not carry traffic.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig8")
	adv := f.Panels[1].Pattern // ADV+2
	run := func(label string) (float64, float64) {
		s := series(t, f, label)
		return steady(t, s, adv, 1.0).Throughput, steady(t, s, adv, 0.2).AvgLatency
	}
	satP, latP := run("physical")
	satE, latE := run("embedded")
	t.Logf("physical: sat %.3f lat %.1f; embedded: sat %.3f lat %.1f", satP, latP, satE, latE)
	if d := satP - satE; d > 0.05 || d < -0.05 {
		t.Errorf("ring realizations differ in throughput: %.3f vs %.3f", satP, satE)
	}
	if d := (latP - latE) / latP; d > 0.15 || d < -0.15 {
		t.Errorf("ring realizations differ in latency: %.1f vs %.1f", latP, latE)
	}
}

// TestFig2bShape: under VAL at saturation, throughput depends strongly on
// the ADV offset; multiples of h are the worst cases and the simulated
// ordering matches the static analysis of §III.
func TestFig2bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig2b")
	at := func(n int) float64 { return steady(t, f.Series[0], f.Panels[n-1].Pattern, 1.0).Throughput }
	t1, t3, t6 := at(1), at(3), at(6)
	t.Logf("VAL ADV+1 %.3f, ADV+3 %.3f, ADV+6 %.3f", t1, t3, t6)
	if t3 >= t1 || t6 >= t1 {
		t.Errorf("offsets multiple of h should underperform ADV+1: %.3f/%.3f vs %.3f", t3, t6, t1)
	}
}

// TestFig6Shape: transient adaptation. OFAR's in-transit decisions settle at
// the new steady level essentially immediately after a pattern switch: the
// early post-switch latency (first 600 cycles) must already be close to the
// late steady level, and the ADV→UN direction converges instantly for every
// mechanism.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	f := figure(t, 3, "fig6")
	early := func(s Series, p Panel) (earlyLat, lateLat float64) {
		cfg, from := resolve(t, s, p.Pattern)
		to, err := ParsePattern(p.Transient.After, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := transientPoint(cfg, from, to, p.Load, 4000, 3000, 4000, 200)
		if err != nil {
			t.Fatal(err)
		}
		var eSum, lSum float64
		var eN, lN int
		for _, pt := range res.Points {
			if pt.Cycle >= 0 && pt.Cycle < 600 {
				eSum += pt.MeanLatency
				eN++
			}
			if pt.Cycle >= 2000 && pt.Cycle <= 3000 {
				lSum += pt.MeanLatency
				lN++
			}
		}
		if eN == 0 || lN == 0 {
			t.Fatal("transient series too sparse")
		}
		return eSum / float64(eN), lSum / float64(lN)
	}

	// UN -> ADV+2: OFAR settles immediately (early within 15% of late).
	ofarSeries := series(t, f, string(OFAR))
	e, l := early(ofarSeries, f.Panels[0])
	t.Logf("OFAR UN->ADV2: early %.1f late %.1f", e, l)
	if e > 1.15*l+10 {
		t.Errorf("OFAR adapted slowly: early %.1f vs late %.1f", e, l)
	}

	// ADV+2 -> UN: instant for every mechanism (the paper's easy case).
	for _, s := range f.Series {
		e, l := early(s, f.Panels[1])
		t.Logf("%s ADV2->UN: early %.1f late %.1f", s.Label, e, l)
		if e > 1.15*l+10 {
			t.Errorf("%s did not converge instantly on ADV->UN: %.1f vs %.1f", s.Label, e, l)
		}
	}

	// ADV+2 -> ADV+h at 0.12 (the paper's hard case): OFAR stays flat.
	e, l = early(ofarSeries, f.Panels[2])
	t.Logf("OFAR ADV2->ADVh: early %.1f late %.1f", e, l)
	if e > 1.2*l+10 {
		t.Errorf("OFAR adapted slowly on ADV2->ADVh: %.1f vs %.1f", e, l)
	}
}

// TestSectionIIICeilings: no saturated run beats the §III analytic ceiling of
// its routing by more than a finite-window slack. MIN is held to the one
// global link joining two groups, 1/(a·p); VAL to its ADV+n local-link cap or
// the 0.5 global-link bound, whichever is lower. A run above its ceiling is a
// flow-control or link-bandwidth bug that no determinism test can see. The
// runs are the bounds and fig2b series: MIN and VAL on every offset at h=2;
// VAL on offsets 1, h and 2h² and MIN on ADV+h at h=3.
func TestSectionIIICeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	const slack = 0.05 // packets straddling the window edges
	for _, h := range []int{2, 3} {
		bounds, fig2b := figure(t, h, "bounds"), figure(t, h, "fig2b")
		minRt, valRt := series(t, bounds, string(MIN)), series(t, fig2b, string(VAL))
		d, err := topology.NewBalanced(h) // the network DefaultConfig(h) builds
		if err != nil {
			t.Fatal(err)
		}
		below := func(s Series, p Panel, ceiling float64) {
			thr := steady(t, s, p.Pattern, p.Load).Throughput
			t.Logf("h=%d %-4s %-6s saturation %.4f, ceiling %.4f", h, s.Label, p.Pattern, thr, ceiling)
			if thr > ceiling*(1+slack) {
				t.Errorf("h=%d %s %s: saturation %.4f above the §III ceiling %.4f", h, s.Label, p.Pattern, thr, ceiling)
			}
		}
		valOn, minOn := fig2b.Panels, fig2b.Panels
		if h == 3 {
			valOn = []Panel{fig2b.Panels[0], fig2b.Panels[h-1], fig2b.Panels[2*h*h-1]}
			minOn = bounds.Panels
		}
		for _, p := range valOn {
			var n int
			if _, err := fmt.Sscanf(p.Pattern, "ADV+%d", &n); err != nil {
				t.Fatal(err)
			}
			below(valRt, p, min(d.AdvValiantLocalCap(n), 0.5))
		}
		for _, p := range minOn {
			below(minRt, p, d.MinGlobalWorstCaseThroughput())
		}
	}
}
