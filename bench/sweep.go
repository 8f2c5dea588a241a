package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ofar"
)

// sweepSpec sizes the sweep workload: every routing × pattern is one
// RunLoadSweepOpt call over all loads, run cold (warm-ups simulated and
// checkpointed) and then again warm (every warm-up restored).
type sweepSpec struct {
	h               int
	routings        []ofar.Routing
	patterns        []ofar.PatternSpec
	loads           []float64
	warmup, measure int
}

func sweepH3Spec(ctx *runCtx) sweepSpec {
	sp := sweepSpec{
		h:        3,
		routings: []ofar.Routing{ofar.MIN, ofar.VAL, ofar.PB, ofar.OFAR},
		patterns: []ofar.PatternSpec{ofar.Uniform(), ofar.Adv(3)},
		loads:    []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40},
		warmup:   1000, measure: 1000,
	}
	if ctx.quick {
		sp.h, sp.patterns, sp.loads = 2, []ofar.PatternSpec{ofar.Uniform(), ofar.Adv(2)}, []float64{0.1, 0.3}
		sp.warmup, sp.measure = 300, 300
	}
	return sp
}

// sweepCfg is the configuration the CLIs build for a routing: the baselines
// run without the escape ring.
func sweepCfg(h int, rt ofar.Routing, seed uint64) ofar.Config {
	cfg := ofar.DefaultConfig(h)
	cfg.Routing, cfg.Seed = rt, seed
	if rt != ofar.OFAR {
		cfg.Ring = ofar.RingNone
	}
	return cfg
}

type sweepCombo struct {
	cfg ofar.Config
	ps  ofar.PatternSpec
}

func (c sweepCombo) rowKey(load float64) string {
	return fmt.Sprintf("row.%s.%s.%s", c.cfg.Routing, c.ps.Name(), ftoa(load))
}

func rowFact(r ofar.SteadyResult) string { return fmt.Sprintf("%+v", r) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runSweepH3(ctx *runCtx) (*outcome, error) {
	o, tr, sp := newOutcome(), ctx.tr, sweepH3Spec(ctx)
	var combos []sweepCombo
	for _, rt := range sp.routings {
		for _, ps := range sp.patterns {
			combos = append(combos, sweepCombo{sweepCfg(sp.h, rt, ctx.seed), ps})
		}
	}
	tmp := filepath.Join(ctx.outDir, fmt.Sprintf("tmp-sweep-%d", os.Getpid()))
	defer os.RemoveAll(tmp)

	// Set-up: the engine digest and the reference rows of a seeded sample of
	// points, each recomputed through the classic RunSteady path the sweep
	// rows must equal.
	type refPoint struct {
		combo int
		load  float64
	}
	// One point per routing × pattern at a seeded pick of the load, so that
	// the set-up costs about the same whatever the seed.
	pick := rand.New(rand.NewSource(int64(ctx.seed)))
	refs := make([]refPoint, len(combos))
	for i := range refs {
		refs[i] = refPoint{i, sp.loads[pick.Intn(len(sp.loads))]}
	}
	reference := map[string]string{}
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		op := tr.newOp()
		ss := tr.begin(op, rootSpan, "bench", "setup")
		td := time.Now()
		ofar.EngineDigest()
		if i == 0 {
			o.layer["ofar.engine_digest_ms"] = ms(time.Since(td))
		}
		for _, rp := range refs {
			c := combos[rp.combo]
			rs := tr.begin(op, ss, "ofar", "run_steady")
			r, err := ofar.RunSteady(c.cfg, c.ps, rp.load, sp.warmup, sp.measure)
			tr.end(rs, 1)
			if err != nil {
				return nil, err
			}
			reference[c.rowKey(rp.load)] = rowFact(r)
		}
		tr.end(ss, 1)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setupS)
	o.note("setup_s: %s", describe(setupS, "s"))

	var (
		coldSec  = make([][]float64, len(combos))
		warmSec  = make([][]float64, len(combos))
		thr, lat []float64
		mismatch string
		cpu0     = cpuSeconds()
		wallSum  float64
	)
	fail := func(format string, args ...any) {
		o.failed++
		if mismatch == "" {
			mismatch = fmt.Sprintf(format, args...)
		}
	}
	measureStart := time.Now()
loop:
	for cycle := 0; ; cycle++ {
		dir := filepath.Join(tmp, fmt.Sprint(cycle))
		opt := ofar.SweepOptions{CheckpointDir: dir, RestoreDir: dir}
		for ci, c := range combos {
			if cycle > 0 && ctx.expired(measureStart) {
				break loop
			}
			// sweep runs the stratum once and holds it to the number of points
			// the warm cache must have restored.
			sweep := func(name string, sec *[]float64, restored int) []ofar.SteadyResult {
				ps := tr.begin(tr.newOp(), rootSpan, "ofar", name)
				t := time.Now()
				rows, st, err := ofar.RunLoadSweepOpt(c.cfg, c.ps, sp.loads, sp.warmup, sp.measure, opt)
				dt := time.Since(t).Seconds()
				tr.end(ps, int64(len(sp.loads)))
				*sec = append(*sec, dt)
				wallSum += dt
				o.attempted += int64(len(sp.loads))
				if err != nil {
					fail("%s %s %s: %v", name, c.cfg.Routing, c.ps.Name(), err)
					return nil
				}
				if st.Restored != restored {
					fail("%s %s %s: %d points restored, want %d", name, c.cfg.Routing, c.ps.Name(), st.Restored, restored)
				}
				return rows
			}
			cold := sweep("sweep.cold", &coldSec[ci], 0)
			warm := sweep("sweep.warm", &warmSec[ci], len(sp.loads))
			if cold == nil || warm == nil {
				break loop
			}
			for li, load := range sp.loads {
				key, row := c.rowKey(load), rowFact(cold[li])
				if w := rowFact(warm[li]); w != row {
					fail("%s: warm pass %s, cold pass %s", key, w, row)
				}
				if ref, ok := reference[key]; ok && ref != row {
					fail("%s: sweep row %s, RunSteady %s", key, row, ref)
				}
				if cycle == 0 {
					o.facts[key] = row
					thr = append(thr, cold[li].Throughput)
					lat = append(lat, cold[li].AvgLatency)
				} else if o.facts[key] != row {
					fail("%s: cycle %d %s, cycle 0 %s", key, cycle, row, o.facts[key])
				}
			}
		}
		os.RemoveAll(dir)
	}
	cpuPar := (cpuSeconds() - cpu0) / wallSum
	o.check("warm rows equal cold rows, sampled rows equal RunSteady, cycles repeat", mismatch == "", "%s", mismatch)

	// One stratum per routing × pattern: its best cold and warm time (see
	// fastSide). The rate is points per second over one cold plus one warm pass
	// of all strata, so it does not depend on which strata a partial last cycle
	// reached.
	var coldTotal, warmTotal float64
	for ci := range combos {
		coldTotal += slices.Min(coldSec[ci])
		warmTotal += slices.Min(warmSec[ci])
	}
	points := float64(len(combos) * len(sp.loads))
	o.e2e["ops_per_s"] = 2 * points / (coldTotal + warmTotal)
	o.e2e["sim_throughput"] = mean(thr)
	o.e2e["sim_latency_avg"] = mean(lat)
	o.note("ops_per_s: sweep points per host second, %g cold + %g warm points over per-stratum best times; %d cold and %d warm sweep calls timed, cold pass %.3f s, warm pass %.3f s",
		points, points, countAll(coldSec), countAll(warmSec), coldTotal, warmTotal)
	if !ctx.traced() {
		return o, nil
	}
	l := o.layer
	l["ofar.cold_points_per_s"] = points / coldTotal
	l["ofar.warm_points_per_s"] = points / warmTotal
	l["ofar.warm_speedup"] = coldTotal / warmTotal
	l["ofar.sweep_parallelism"] = cpuPar
	if err := sweepStageProbe(ctx, o, sp, combos); err != nil {
		return nil, err
	}
	runProbes(ctx, o)
	return o, nil
}

func countAll(xs [][]float64) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}

// sweepStageProbe runs one mid-load point of every routing × pattern by hand
// through the public stage calls a sweep point is made of — Warm, Snapshot,
// WarmFromSnapshot, MeasureTimed — plus a bare construct and fork, to time
// the stages RunLoadSweepOpt hides.
func sweepStageProbe(ctx *runCtx, o *outcome, sp sweepSpec, combos []sweepCombo) error {
	tr := ctx.tr
	load := sp.loads[len(sp.loads)/2]
	var (
		warmMS, snapMS, restoreMS, measureMS, newMS, forkMS, forkMB, snapKB []float64
		pointMS                                                             = map[ofar.Routing][]float64{}
		phases                                                              ofar.PhaseNanos
		delivered, gMis, lMis, ring                                         int64
	)
	lap := func(t *time.Time) float64 {
		d := ms(time.Since(*t))
		*t = time.Now()
		return d
	}
	for _, c := range combos {
		op := tr.newOp()
		ps := tr.begin(op, rootSpan, "ofar", "point")
		stage := func(layer, name string) func() {
			s := tr.begin(op, ps, layer, name)
			return func() { tr.end(s, 1) }
		}
		t := time.Now()
		done := stage("ofar", "warm")
		w, err := ofar.Warm(c.cfg, c.ps, load, sp.warmup)
		done()
		if err != nil {
			return err
		}
		warmMS = append(warmMS, lap(&t))
		var buf bytes.Buffer
		done = stage("network", "snapshot")
		err = w.Snapshot(&buf)
		done()
		w.Close()
		if err != nil {
			return err
		}
		snapMS = append(snapMS, lap(&t))
		snapKB = append(snapKB, float64(buf.Len())/1024)
		done = stage("network", "restore")
		w2, err := ofar.WarmFromSnapshot(c.cfg, c.ps, load, &buf)
		done()
		if err != nil {
			return err
		}
		restoreMS = append(restoreMS, lap(&t))
		done = stage("ofar", "measure")
		res, ph, err := w2.MeasureTimed(sp.measure)
		done()
		w2.Close()
		if err != nil {
			return err
		}
		d := lap(&t)
		measureMS = append(measureMS, d)
		pointMS[c.cfg.Routing] = append(pointMS[c.cfg.Routing], d)
		phases.Add(ph)
		delivered, gMis, lMis, ring = delivered+res.Delivered, gMis+res.GlobalMisroutes, lMis+res.LocalMisroutes, ring+res.RingEnters
		o.check("by-hand point equals its sweep row: "+c.rowKey(load), rowFact(res) == o.facts[c.rowKey(load)],
			"%s, sweep row %s", rowFact(res), o.facts[c.rowKey(load)])

		t = time.Now()
		done = stage("network", "construct")
		sim, err := ofar.NewSimulator(c.cfg)
		done()
		if err != nil {
			return err
		}
		newMS = append(newMS, lap(&t))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t = time.Now()
		done = stage("network", "fork")
		f, err := sim.Fork()
		done()
		sim.Close()
		if err != nil {
			return err
		}
		forkMS = append(forkMS, lap(&t))
		runtime.ReadMemStats(&m1)
		forkMB = append(forkMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		f.Close()
		tr.end(ps, 1)
	}
	l := o.layer
	l["ofar.warm_ms_p50"] = median(warmMS)
	l["ofar.snapshot_ms_p50"] = median(snapMS)
	l["ofar.restore_ms_p50"] = median(restoreMS)
	l["ofar.measure_ms_p50"] = median(measureMS)
	l["ofar.fixed_share"] = (median(newMS) + median(snapMS) + median(forkMS)) / (median(warmMS) + median(snapMS) + median(measureMS))
	l["network.new_ms"] = median(newMS)
	l["network.snapshot_ms"] = median(snapMS)
	l["network.snapshot_kb"] = median(snapKB)
	l["network.restore_ms"] = median(restoreMS)
	l["network.fork_ms"] = median(forkMS)
	l["network.fork_mb"] = median(forkMB)
	for rt, name := range map[ofar.Routing]string{ofar.MIN: "routing.min", ofar.VAL: "routing.val", ofar.PB: "routing.pb", ofar.OFAR: "core.ofar"} {
		l[name+".point_ms"] = median(pointMS[rt])
	}
	setPhases(l, phases)
	if delivered > 0 {
		l["core.global_misroutes_per_kpkt"] = 1000 * float64(gMis) / float64(delivered)
		l["core.local_misroutes_per_kpkt"] = 1000 * float64(lMis) / float64(delivered)
		l["core.escape_frac"] = float64(ring) / float64(delivered)
	}
	o.note("stage probe at load %g over %d points: warm %s; measure %s", load, len(combos),
		describe(warmMS, "ms"), describe(measureMS, "ms"))
	return nil
}
