// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Figs. 2b–9). Each figure prints the same series the
// paper plots; EXPERIMENTS.md records the measured outputs next to the
// paper's values.
//
// The default scale is h=3 (342 nodes) so every figure regenerates in
// minutes on a laptop; pass -h 6 for the paper's full-size network
// (5,256 nodes — much slower).
//
// Examples:
//
//	experiments -fig fig5
//	experiments -fig all -h 3
//	experiments -fig fig7 -burst 200
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ofar"
	"ofar/internal/plot"
)

type scale struct {
	h       int
	warmup  int
	measure int
	burst   int // packets per node in fig7
	maxCyc  int
	seed    uint64
	svgDir  string // when non-empty, write an SVG per figure
	workers int    // intra-network pool workers (0/1 = no pool)
	faults  []ofar.Fault
	ckptDir string // when non-empty, write per-point warm snapshots here
	restDir string // when non-empty, restore warm snapshots from here
}

// sweep runs one load sweep, with the warm cache when -checkpoint/-restore
// are set. Rows are bit-identical to per-point RunSteady runs either way.
func (sc scale) sweep(cfg ofar.Config, ps ofar.PatternSpec, loads []float64) ([]ofar.SteadyResult, error) {
	rs, st, err := ofar.RunLoadSweepOpt(cfg, ps, loads, sc.warmup, sc.measure,
		ofar.SweepOptions{CheckpointDir: sc.ckptDir, RestoreDir: sc.restDir})
	if err == nil && (sc.ckptDir != "" || sc.restDir != "") {
		fmt.Fprintf(os.Stderr, "experiments: %s %s: warm cache: %d restored (%d warmup cycles skipped), %d warmed\n",
			cfg.Routing, ps.Name(), st.Restored, st.WarmupCyclesSkipped, st.Warmed)
	}
	return rs, err
}

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: fig2b,fig3,fig4,fig5,fig6,fig7,fig8,fig9,bounds,all; extensions: stencil,fig9m,degradation,interference")
		h      = flag.Int("h", 3, "dragonfly parameter h (6 = paper scale)")
		warm   = flag.Int("warmup", 3000, "warm-up cycles per point")
		meas   = flag.Int("measure", 5000, "measurement cycles per point")
		burst  = flag.Int("burst", 100, "burst size per node for fig7 (paper: 2000)")
		seed   = flag.Uint64("seed", 1, "random seed")
		points = flag.Int("points", 8, "load points per sweep")
		svgDir = flag.String("svg", "", "directory to write one SVG chart per figure (optional)")
		work   = flag.Int("workers", 0, "pool workers per network, stealing whole dragonfly groups (0/1 = no pool; bit-identical results, useful at h=6)")
		faults = flag.String("faults", "", "fault schedule applied to every run: a JSON file of Fault objects, or inline like link@5000:12:7")
		ckpt   = flag.String("checkpoint", "", "directory to write per-point warm snapshots into (reuse with -restore)")
		rest   = flag.String("restore", "", "directory of warm snapshots: sweep points found there skip warmup, bit-identically")
	)
	flag.Parse()
	sc := scale{h: *h, warmup: *warm, measure: *meas, burst: *burst, maxCyc: 50_000_000, seed: *seed, svgDir: *svgDir, workers: *work, ckptDir: *ckpt, restDir: *rest}
	if *faults != "" {
		fs, err := ofar.LoadFaults(*faults)
		check(err)
		sc.faults = fs
	}
	if sc.svgDir != "" {
		if err := os.MkdirAll(sc.svgDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	figs := map[string]func(scale, int){
		"fig2b":        fig2b,
		"fig3":         fig3,
		"fig4":         fig4,
		"fig5":         fig5,
		"fig6":         fig6,
		"fig7":         fig7,
		"fig8":         fig8,
		"fig9":         fig9,
		"bounds":       bounds,
		"stencil":      stencil,      // extension: §III application-workload table
		"fig9m":        fig9m,        // extension: fig9 with the congestion manager
		"degradation":  degradation,  // extension: throughput/p99 vs failed global links
		"interference": interference, // extension: per-job p99 slowdown, mapping × routing
	}
	order := []string{"bounds", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
	name := strings.ToLower(*fig)
	if name == "all" {
		for _, f := range order {
			figs[f](sc, *points)
		}
		return
	}
	f, ok := figs[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		os.Exit(1)
	}
	f(sc, *points)
}

// stencil reproduces the repository's §III application-workload table:
// {MIN, OFAR} × {linear, random} task mapping on a 3-D halo exchange.
func stencil(sc scale, _ int) {
	header("Extension — 3-D stencil halo exchange, mapping × routing")
	dims := bestStencilDims(sc)
	fmt.Printf("task grid: %dx%dx%d\n", dims[0], dims[1], dims[2])
	fmt.Printf("%-10s %-10s %12s %12s\n", "routing", "mapping", "latency@0.3", "saturation")
	for _, rt := range []ofar.Routing{ofar.MIN, ofar.OFAR} {
		for _, random := range []bool{false, true} {
			ps := ofar.Stencil3D(dims[0], dims[1], dims[2], random)
			lat, err := ofar.RunSteady(cfgFor(sc, rt), ps, 0.3, sc.warmup, sc.measure)
			check(err)
			sat, err := ofar.RunSteady(cfgFor(sc, rt), ps, 1.0, sc.warmup, sc.measure)
			check(err)
			mapping := "linear"
			if random {
				mapping = "random"
			}
			fmt.Printf("%-10s %-10s %12.1f %12.4f\n", rt, mapping, lat.AvgLatency, sat.Throughput)
		}
	}
}

// interference measures how much concurrent jobs hurt each other: a mixed
// job set shares the network, then each job re-runs with every other job
// silenced but placement unchanged, and the table reports per-job shared p99
// and p99(shared)/p99(alone) for {MIN, OFAR} × {linear, random} task mapping.
// Linear mapping isolates each job in its own groups, so MIN shows almost no
// interference but a wide per-job p99 skew; OFAR's misrouting exports each
// job's load onto its neighbors' groups and rings. Random mapping makes every
// job share every link and flattens the skew for both routings.
func interference(sc scale, _ int) {
	header("Extension — job interference, p99 slowdown = shared / alone")
	w := defaultJobMix(sc)
	fmt.Printf("job set: %s\n", w.Name())
	fmt.Printf("%-10s %-10s %-44s %s\n", "routing", "mapping", "per-job shared p99 (cycles)", "p99 slowdown")
	for _, rt := range []ofar.Routing{ofar.MIN, ofar.OFAR} {
		for _, random := range []bool{false, true} {
			wm := w
			wm.RandomMap = random
			res, err := ofar.RunInterference(cfgFor(sc, rt), wm, 1.0, sc.warmup, sc.measure)
			check(err)
			mapping := "linear"
			if random {
				mapping = "random"
			}
			shared, slow := "", ""
			for _, p := range res.Points {
				shared += fmt.Sprintf(" %s=%.0f", p.Job, p.SharedP99)
				slow += fmt.Sprintf(" %s=%.2f", p.Job, p.SlowdownP99)
			}
			fmt.Printf("%-10s %-10s %-44s%s\n", rt, mapping, shared, slow)
		}
	}
}

// defaultJobMix sizes a four-job mix from the network: a near-cubic stencil
// and an all-to-all on a quarter of the nodes each, a ring on another
// quarter, a parameter-server fan-in on an eighth, light uniform background
// on the rest.
func defaultJobMix(sc scale) ofar.Workload {
	nodes := sc.h * 2 * sc.h * (2*sc.h*sc.h + 1)
	q := nodes / 4
	dims := cubicDims(q)
	return ofar.Workload{
		Jobs: []ofar.JobSpec{
			{Kind: "stencil", Tasks: dims[0] * dims[1] * dims[2], Dims: dims, Load: 0.3},
			{Kind: "a2a", Tasks: q, Load: 0.5},
			{Kind: "ring", Tasks: q, Load: 0.2},
			{Kind: "ps", Tasks: max(nodes/8, 3), Load: 0.4},
		},
		Background: 0.1,
	}
}

// cubicDims picks the near-cubic x≤y≤z grid with the most cells ≤ n.
func cubicDims(n int) [3]int {
	best, bestV := [3]int{1, 1, 2}, 2
	for x := 1; x*x*x <= n; x++ {
		for y := x; x*y*y <= n; y++ {
			z := n / (x * y)
			if z < y {
				continue
			}
			v := x * y * z
			if v > n {
				continue
			}
			// Same cell count: prefer the more cubic grid.
			if v > bestV || (v == bestV && z-x < best[2]-best[0]) {
				best, bestV = [3]int{x, y, z}, v
			}
		}
	}
	return best
}

// bestStencilDims picks a near-cubic grid filling most of the network.
func bestStencilDims(sc scale) [3]int {
	nodes := sc.h * 2 * sc.h * (2*sc.h*sc.h + 1)
	best := [3]int{1, 1, 1}
	bestV := 0
	for x := 2; x*x*x <= nodes*2; x++ {
		for y := x; x*y*y <= nodes*2; y++ {
			z := nodes / (x * y)
			if z < 2 {
				continue
			}
			if v := x * y * z; v <= nodes && v > bestV {
				best, bestV = [3]int{x, y, z}, v
			}
		}
	}
	return best
}

// fig9m repeats the Fig. 9 reduced-VC experiment with the injection
// throttle enabled — the congestion-management future work of §VII.
func fig9m(sc scale, points int) {
	header("Extension — Fig. 9 scenario with injection-throttling congestion management")
	ps := ofar.Adv(sc.h)
	loads := loadSeries(0.6, points)
	mk := func(managed bool) ofar.Config {
		cfg := cfgFor(sc, ofar.OFAR)
		cfg.Ring = ofar.RingEmbedded
		cfg.LocalVCs, cfg.GlobalVCs, cfg.InjVCs = 2, 1, 2
		cfg.Congestion.Enabled = managed
		cfg.Congestion.Threshold = 0.5
		return cfg
	}
	plain, err := sc.sweep(mk(false), ps, loads)
	check(err)
	managed, err := sc.sweep(mk(true), ps, loads)
	check(err)
	fmt.Printf("%-8s %14s %14s\n", "load", "unmanaged", "managed")
	ch := &plot.Chart{Title: "Fig. 9 scenario + congestion management (" + ps.Name() + ")",
		XLabel: "offered load", YLabel: "accepted (phits/node/cycle)"}
	var pPts, mPts []plot.Point
	for i, load := range loads {
		fmt.Printf("%-8.3f %14.4f %14.4f\n", load, plain[i].Throughput, managed[i].Throughput)
		pPts = append(pPts, plot.Point{X: load, Y: plain[i].Throughput})
		mPts = append(mPts, plot.Point{X: load, Y: managed[i].Throughput})
	}
	ch.Add("unmanaged", pPts)
	ch.Add("managed", mPts)
	writeChart(sc, "fig9m", ch)
}

func cfgFor(sc scale, rt ofar.Routing) ofar.Config {
	cfg := ofar.DefaultConfig(sc.h).WithRouting(rt)
	cfg.Seed = sc.seed
	cfg.Workers = sc.workers
	cfg.Faults = sc.faults
	return cfg
}

// degradation measures graceful degradation: OFAR on uniform traffic with
// an increasing number of failed global links, killed mid-warm-up so the
// measurement window sees only the degraded network.
func degradation(sc scale, _ int) {
	header("Extension — graceful degradation under global-link faults (OFAR)")
	cfg := cfgFor(sc, ofar.OFAR)
	cfg.Faults = nil // RunDegradation installs its own schedule per point
	faultAt := int64(sc.warmup / 2)
	pts, err := ofar.RunDegradation(cfg, ofar.Uniform(), 0.3, faultAt, 4, sc.warmup, sc.measure)
	check(err)
	fmt.Printf("%-12s %12s %12s %12s %10s %10s %10s\n",
		"failed-links", "throughput", "avg-lat", "p99-lat", "dropped", "reroutes", "flows")
	ch := &plot.Chart{Title: "Graceful degradation — OFAR, uniform at 0.3",
		XLabel: "failed global links", YLabel: "normalized to fault-free"}
	var thr, p99 []plot.Point
	for _, p := range pts {
		fmt.Printf("%-12d %12.4f %12.1f %12.1f %10d %10d %10d\n",
			p.FailedLinks, p.Throughput, p.AvgLatency, p.P99Latency,
			p.Dropped, p.FaultReroutes, p.AffectedFlows)
		thr = append(thr, plot.Point{X: float64(p.FailedLinks), Y: p.Throughput / pts[0].Throughput})
		p99 = append(p99, plot.Point{X: float64(p.FailedLinks), Y: p.P99Latency / pts[0].P99Latency})
	}
	ch.Add("throughput", thr)
	ch.Add("p99 latency", p99)
	writeChart(sc, "degradation", ch)
}

func loadSeries(max float64, points int) []float64 {
	out := make([]float64, points)
	for i := range out {
		out[i] = max * float64(i+1) / float64(points)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

// writeChart saves a chart into the -svg directory (no-op when unset).
func writeChart(sc scale, name string, c *plot.Chart) {
	if sc.svgDir == "" {
		return
	}
	path := filepath.Join(sc.svgDir, name+".svg")
	if err := os.WriteFile(path, []byte(c.SVG()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("[wrote %s]\n", path)
}

// bounds prints the §III analytic throughput ceilings next to measured
// saturation values.
func bounds(sc scale, _ int) {
	header("§III analytic bounds vs simulation")
	cfg := cfgFor(sc, ofar.MIN)
	sim, err := ofar.NewSimulator(cfg)
	check(err)
	d := sim.Topology()
	fmt.Printf("network: h=%d, %d nodes, %d routers, %d groups\n", sc.h, d.Nodes, d.Routers, d.G)
	fmt.Printf("MIN worst case (group->group): analytic %.4f\n", d.MinGlobalWorstCaseThroughput())
	fmt.Printf("MIN worst case (router->router local): analytic %.4f\n", d.MinLocalWorstCaseThroughput())
	fmt.Printf("VAL global-link bound: %.3f\n", d.ValiantThroughputBound())
	fmt.Printf("VAL ADV+h local l2 cap: analytic %.4f (1/h = %.4f)\n",
		d.AdvValiantLocalCap(sc.h), d.ValiantLocalSaturationBound())

	min, err := ofar.RunSteady(cfgFor(sc, ofar.MIN), ofar.Adv(sc.h), 1.0, sc.warmup, sc.measure)
	check(err)
	val, err := ofar.RunSteady(cfgFor(sc, ofar.VAL), ofar.Adv(sc.h), 1.0, sc.warmup, sc.measure)
	check(err)
	fmt.Printf("measured: MIN ADV+h saturation %.4f, VAL ADV+h saturation %.4f\n",
		min.Throughput, val.Throughput)
}

// fig2b: VAL saturation throughput versus ADV offset.
func fig2b(sc scale, _ int) {
	header("Fig. 2b — VAL throughput vs adversarial offset")
	cfg := cfgFor(sc, ofar.VAL)
	sim, err := ofar.NewSimulator(cfg)
	check(err)
	g := sim.Topology().G
	fmt.Printf("%-8s %-12s %-12s\n", "offset", "throughput", "analytic-cap")
	var meas, caps []plot.Point
	for n := 1; n < g; n++ {
		res, err := ofar.RunSteady(cfg, ofar.Adv(n), 1.0, sc.warmup, sc.measure)
		check(err)
		cap := sim.Topology().AdvValiantLocalCap(n)
		if cap > 0.5 {
			cap = 0.5 // global-link bound dominates
		}
		fmt.Printf("%-8d %-12.4f %-12.4f\n", n, res.Throughput, cap)
		meas = append(meas, plot.Point{X: float64(n), Y: res.Throughput})
		caps = append(caps, plot.Point{X: float64(n), Y: cap})
	}
	ch := &plot.Chart{Title: "Fig. 2b — VAL throughput vs ADV offset", XLabel: "group offset N", YLabel: "saturation throughput"}
	ch.Add("measured", meas)
	ch.Add("analytic cap", caps)
	writeChart(sc, "fig2b", ch)
}

// sweepFigure runs latency+throughput load sweeps for a set of mechanisms.
func sweepFigure(sc scale, id, title string, ps ofar.PatternSpec, maxLoad float64, points int, routings []ofar.Routing) {
	header(title)
	loads := loadSeries(maxLoad, points)
	fmt.Printf("%-8s", "load")
	for _, rt := range routings {
		fmt.Printf("%14s-lat %14s-thr", rt, rt)
	}
	fmt.Println()
	results := make(map[ofar.Routing][]ofar.SteadyResult)
	for _, rt := range routings {
		rs, err := sc.sweep(cfgFor(sc, rt), ps, loads)
		check(err)
		results[rt] = rs
	}
	for i, load := range loads {
		fmt.Printf("%-8.3f", load)
		for _, rt := range routings {
			r := results[rt][i]
			fmt.Printf("%18.1f %18.4f", r.AvgLatency, r.Throughput)
		}
		fmt.Println()
	}
	latChart := &plot.Chart{Title: title + " — latency", XLabel: "offered load (phits/node/cycle)", YLabel: "avg latency (cycles)"}
	thrChart := &plot.Chart{Title: title + " — throughput", XLabel: "offered load (phits/node/cycle)", YLabel: "accepted (phits/node/cycle)"}
	for _, rt := range routings {
		var lat, thr []plot.Point
		for i, load := range loads {
			lat = append(lat, plot.Point{X: load, Y: results[rt][i].AvgLatency})
			thr = append(thr, plot.Point{X: load, Y: results[rt][i].Throughput})
		}
		latChart.Add(string(rt), lat)
		thrChart.Add(string(rt), thr)
	}
	writeChart(sc, id+"_latency", latChart)
	writeChart(sc, id+"_throughput", thrChart)
}

func fig3(sc scale, points int) {
	sweepFigure(sc, "fig3", "Fig. 3 — uniform traffic (UN)", ofar.Uniform(), 1.0, points,
		[]ofar.Routing{ofar.MIN, ofar.PB, ofar.OFAR, ofar.OFARL})
}

func fig4(sc scale, points int) {
	sweepFigure(sc, "fig4", "Fig. 4 — adversarial ADV+2", ofar.Adv(2), 0.6, points,
		[]ofar.Routing{ofar.VAL, ofar.PB, ofar.OFAR, ofar.OFARL})
}

func fig5(sc scale, points int) {
	sweepFigure(sc, "fig5", fmt.Sprintf("Fig. 5 — adversarial ADV+%d (ADV+h)", sc.h), ofar.Adv(sc.h), 0.6, points,
		[]ofar.Routing{ofar.VAL, ofar.PB, ofar.OFAR, ofar.OFARL})
}

// fig6: transient latency series for three pattern switches.
func fig6(sc scale, _ int) {
	header("Fig. 6 — transient adaptation (latency by send cycle)")
	cases := []struct {
		from, to ofar.PatternSpec
		load     float64
	}{
		{ofar.Uniform(), ofar.Adv(2), 0.14},
		{ofar.Adv(2), ofar.Uniform(), 0.14},
		{ofar.Adv(2), ofar.Adv(sc.h), 0.12},
	}
	for ci, c := range cases {
		fmt.Printf("\n-- %s -> %s at load %.2f --\n", c.from.Name(), c.to.Name(), c.load)
		fmt.Printf("%-10s", "cycle")
		rts := []ofar.Routing{ofar.PB, ofar.OFAR, ofar.OFARL}
		series := map[ofar.Routing]map[int64]float64{}
		ch := &plot.Chart{
			Title:  fmt.Sprintf("Fig. 6 — %s → %s (load %.2f)", c.from.Name(), c.to.Name(), c.load),
			XLabel: "send cycle relative to switch", YLabel: "avg latency (cycles)",
		}
		for _, rt := range rts {
			fmt.Printf("%12s", rt)
			res, err := ofar.RunTransient(cfgFor(sc, rt), c.from, c.to, c.load,
				sc.warmup, 3000, 4000, 200)
			check(err)
			m := map[int64]float64{}
			var pts []plot.Point
			for _, p := range res.Points {
				m[p.Cycle] = p.MeanLatency
				pts = append(pts, plot.Point{X: float64(p.Cycle), Y: p.MeanLatency})
			}
			series[rt] = m
			ch.Add(string(rt), pts)
		}
		fmt.Println()
		for cyc := int64(-1000); cyc <= 3000; cyc += 200 {
			fmt.Printf("%-10d", cyc)
			for _, rt := range rts {
				if v, ok := series[rt][cyc]; ok {
					fmt.Printf("%12.1f", v)
				} else {
					fmt.Printf("%12s", "-")
				}
			}
			fmt.Println()
		}
		writeChart(sc, fmt.Sprintf("fig6_case%d", ci+1), ch)
	}
}

// fig7: burst consumption time normalized to PB.
func fig7(sc scale, _ int) {
	header(fmt.Sprintf("Fig. 7 — burst consumption (%d packets/node), normalized to PB", sc.burst))
	patterns := append([]ofar.PatternSpec{ofar.Uniform(), ofar.Adv(2), ofar.Adv(sc.h)},
		ofar.PaperMixes(sc.h)...)
	fmt.Printf("%-8s %12s %12s %12s %10s %10s\n", "pattern", "PB-cycles", "OFAR-cycles", "OFARL-cycles", "OFAR/PB", "OFARL/PB")
	var sumO, sumL float64
	var ptsO, ptsL []plot.Point
	for pi, ps := range patterns {
		pb, err := ofar.RunBurst(cfgFor(sc, ofar.PB), ps, sc.burst, sc.maxCyc)
		check(err)
		of, err := ofar.RunBurst(cfgFor(sc, ofar.OFAR), ps, sc.burst, sc.maxCyc)
		check(err)
		ol, err := ofar.RunBurst(cfgFor(sc, ofar.OFARL), ps, sc.burst, sc.maxCyc)
		check(err)
		ro := float64(of.Cycles) / float64(pb.Cycles)
		rl := float64(ol.Cycles) / float64(pb.Cycles)
		sumO += ro
		sumL += rl
		ptsO = append(ptsO, plot.Point{X: float64(pi), Y: ro})
		ptsL = append(ptsL, plot.Point{X: float64(pi), Y: rl})
		fmt.Printf("%-8s %12d %12d %12d %10.3f %10.3f\n",
			ps.Name(), pb.Cycles, of.Cycles, ol.Cycles, ro, rl)
	}
	n := float64(len(patterns))
	fmt.Printf("%-8s %12s %12s %12s %10.3f %10.3f\n", "average", "", "", "", sumO/n, sumL/n)
	ch := &plot.Chart{Title: "Fig. 7 — burst time normalized to PB (lower is better)",
		XLabel: "pattern index (UN, ADV+2, ADV+h, MIX1..3)", YLabel: "time / PB time"}
	ch.Add("OFAR", ptsO)
	ch.Add("OFAR-L", ptsL)
	writeChart(sc, "fig7", ch)
}

// fig8: physical vs embedded escape ring.
func fig8(sc scale, points int) {
	header("Fig. 8 — physical vs embedded escape ring (OFAR)")
	for _, ps := range []ofar.PatternSpec{ofar.Uniform(), ofar.Adv(2)} {
		fmt.Printf("\n-- pattern %s --\n", ps.Name())
		fmt.Printf("%-8s %14s %14s %14s %14s\n", "load", "phys-lat", "phys-thr", "emb-lat", "emb-thr")
		maxLoad := 1.0
		if ps.Name() != "UN" {
			maxLoad = 0.6
		}
		loads := loadSeries(maxLoad, points)
		cfgP := cfgFor(sc, ofar.OFAR)
		cfgP.Ring = ofar.RingPhysical
		cfgE := cfgFor(sc, ofar.OFAR)
		cfgE.Ring = ofar.RingEmbedded
		rp, err := sc.sweep(cfgP, ps, loads)
		check(err)
		re, err := sc.sweep(cfgE, ps, loads)
		check(err)
		ch := &plot.Chart{Title: "Fig. 8 — " + ps.Name() + " physical vs embedded ring",
			XLabel: "offered load", YLabel: "accepted (phits/node/cycle)"}
		var pPts, ePts []plot.Point
		for i, load := range loads {
			fmt.Printf("%-8.3f %14.1f %14.4f %14.1f %14.4f\n",
				load, rp[i].AvgLatency, rp[i].Throughput, re[i].AvgLatency, re[i].Throughput)
			pPts = append(pPts, plot.Point{X: load, Y: rp[i].Throughput})
			ePts = append(ePts, plot.Point{X: load, Y: re[i].Throughput})
		}
		ch.Add("physical", pPts)
		ch.Add("embedded", ePts)
		writeChart(sc, "fig8_"+strings.ToLower(strings.ReplaceAll(ps.Name(), "+", "")), ch)
	}
}

// fig9: congestion with a reduced number of VCs (2 local, 1 global,
// embedded ring, no congestion management).
func fig9(sc scale, points int) {
	header("Fig. 9 — reduced VCs (2 local / 1 global, embedded ring)")
	for _, ps := range []ofar.PatternSpec{ofar.Uniform(), ofar.Adv(2), ofar.Adv(sc.h)} {
		fmt.Printf("\n-- pattern %s --\n", ps.Name())
		fmt.Printf("%-8s %14s %14s\n", "load", "full-VC-thr", "reduced-VC-thr")
		maxLoad := 1.0
		if ps.Name() != "UN" {
			maxLoad = 0.6
		}
		loads := loadSeries(maxLoad, points)
		full := cfgFor(sc, ofar.OFAR)
		full.Ring = ofar.RingEmbedded
		red := cfgFor(sc, ofar.OFAR)
		red.Ring = ofar.RingEmbedded
		red.LocalVCs, red.GlobalVCs, red.InjVCs = 2, 1, 2
		rf, err := sc.sweep(full, ps, loads)
		check(err)
		rr, err := sc.sweep(red, ps, loads)
		check(err)
		ch := &plot.Chart{Title: "Fig. 9 — " + ps.Name() + " with reduced VCs",
			XLabel: "offered load", YLabel: "accepted (phits/node/cycle)"}
		var fPts, rPts []plot.Point
		for i, load := range loads {
			fmt.Printf("%-8.3f %14.4f %14.4f\n", load, rf[i].Throughput, rr[i].Throughput)
			fPts = append(fPts, plot.Point{X: load, Y: rf[i].Throughput})
			rPts = append(rPts, plot.Point{X: load, Y: rr[i].Throughput})
		}
		ch.Add("3L/2G VCs", fPts)
		ch.Add("2L/1G VCs", rPts)
		writeChart(sc, "fig9_"+strings.ToLower(strings.ReplaceAll(ps.Name(), "+", "")), ch)
	}
}
