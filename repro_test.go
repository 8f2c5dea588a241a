package ofar

import "testing"

// Reproduction shape tests: these assert the qualitative results of the
// paper's evaluation section at a reduced scale (h=3: 342 nodes) so the
// full suite stays fast. The benchmark harness regenerates the figures at
// full scale.

func steadyCfg(rt Routing) Config { return DefaultConfig(3).WithRouting(rt) }

// TestFig3Shape: under uniform traffic OFAR saturates no lower than MIN and
// clearly above PB; latency at low load is competitive with MIN while PB
// pays for its misrouted packets.
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction shapes need full runs")
	}
	sat := map[Routing]float64{}
	lat := map[Routing]float64{}
	for _, rt := range []Routing{MIN, PB, OFAR, OFARL} {
		s, err := RunSteady(steadyCfg(rt), Uniform(), 1.0, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		sat[rt] = s.Throughput
		l, err := RunSteady(steadyCfg(rt), Uniform(), 0.1, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		lat[rt] = l.AvgLatency
		t.Logf("%-7s UN: saturation %.3f, latency@0.1 %.1f", rt, s.Throughput, l.AvgLatency)
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
	sat := map[Routing]float64{}
	for _, rt := range []Routing{VAL, PB, OFAR, OFARL} {
		s, err := RunSteady(steadyCfg(rt), Adv(2), 1.0, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		sat[rt] = s.Throughput
		t.Logf("%-7s ADV+2: saturation %.3f", rt, s.Throughput)
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
	h := 3
	sat := map[Routing]float64{}
	for _, rt := range []Routing{MIN, VAL, PB, OFAR, OFARL} {
		s, err := RunSteady(steadyCfg(rt), Adv(h), 1.0, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		sat[rt] = s.Throughput
		t.Logf("%-7s ADV+h: saturation %.3f", rt, s.Throughput)
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
	h := 3
	patterns := append([]PatternSpec{Uniform(), Adv(2), Adv(h)}, PaperMixes(h)...)
	var ofarFaster, total int
	var ratioSum float64
	for _, ps := range patterns {
		pb, err := RunBurst(steadyCfg(PB), ps, 40, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		of, err := RunBurst(steadyCfg(OFAR), ps, 40, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !pb.Drained || !of.Drained {
			t.Fatalf("%s: burst not drained (pb=%v ofar=%v)", ps.Name(), pb.Drained, of.Drained)
		}
		ratio := float64(of.Cycles) / float64(pb.Cycles)
		ratioSum += ratio
		total++
		if of.Cycles < pb.Cycles {
			ofarFaster++
		}
		t.Logf("%-6s burst: OFAR %d vs PB %d cycles (ratio %.2f)", ps.Name(), of.Cycles, pb.Cycles, ratio)
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
	run := func(mode RingMode) (float64, float64) {
		cfg := steadyCfg(OFAR)
		cfg.Ring = mode
		s, err := RunSteady(cfg, Adv(2), 1.0, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		l, err := RunSteady(cfg, Adv(2), 0.2, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return s.Throughput, l.AvgLatency
	}
	satP, latP := run(RingPhysical)
	satE, latE := run(RingEmbedded)
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
	cfg := steadyCfg(VAL)
	at := func(n int) float64 {
		s, err := RunSteady(cfg, Adv(n), 1.0, 2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return s.Throughput
	}
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
	early := func(rt Routing, from, to PatternSpec, load float64) (earlyLat, lateLat float64) {
		res, err := RunTransient(steadyCfg(rt), from, to, load, 4000, 3000, 4000, 200)
		if err != nil {
			t.Fatal(err)
		}
		var eSum, lSum float64
		var eN, lN int
		for _, p := range res.Points {
			if p.Cycle >= 0 && p.Cycle < 600 {
				eSum += p.MeanLatency
				eN++
			}
			if p.Cycle >= 2000 && p.Cycle <= 3000 {
				lSum += p.MeanLatency
				lN++
			}
		}
		if eN == 0 || lN == 0 {
			t.Fatal("transient series too sparse")
		}
		return eSum / float64(eN), lSum / float64(lN)
	}

	// UN -> ADV+2: OFAR settles immediately (early within 15% of late).
	e, l := early(OFAR, Uniform(), Adv(2), 0.14)
	t.Logf("OFAR UN->ADV2: early %.1f late %.1f", e, l)
	if e > 1.15*l+10 {
		t.Errorf("OFAR adapted slowly: early %.1f vs late %.1f", e, l)
	}

	// ADV+2 -> UN: instant for every mechanism (the paper's easy case).
	for _, rt := range []Routing{PB, OFAR, OFARL} {
		e, l := early(rt, Adv(2), Uniform(), 0.14)
		t.Logf("%s ADV2->UN: early %.1f late %.1f", rt, e, l)
		if e > 1.15*l+10 {
			t.Errorf("%s did not converge instantly on ADV->UN: %.1f vs %.1f", rt, e, l)
		}
	}

	// ADV+2 -> ADV+h at 0.12 (the paper's hard case): OFAR stays flat.
	e, l = early(OFAR, Adv(2), Adv(3), 0.12)
	t.Logf("OFAR ADV2->ADVh: early %.1f late %.1f", e, l)
	if e > 1.2*l+10 {
		t.Errorf("OFAR adapted slowly on ADV2->ADVh: %.1f vs %.1f", e, l)
	}
}
