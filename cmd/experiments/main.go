// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Figs. 2b–9) and the repository's extensions of them.
// Every figure is an entry of ofar.PaperFigures, the table the shape tests
// check; this command runs its series and prints them. EXPERIMENTS.md records
// the measured outputs next to the paper's values.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ofar"
	"ofar/internal/plot"
	"ofar/internal/topology"
)

// maxBurstCycles bounds a Fig. 7 burst that never drains.
const maxBurstCycles = 50_000_000

// scale is what every figure run shares: the flags and the output streams.
type scale struct {
	h, warmup, measure, points int
	burst                      int // packets per node in fig7
	seed                       uint64
	workers                    int // intra-network pool workers (0/1 = no pool)
	faults                     []ofar.Fault
	svgDir                     string // when non-empty, write an SVG per figure
	ckptDir, restDir           string // when non-empty, write/restore per-point warm snapshots here
	out, log                   io.Writer
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// failure carries an error from check to run, out of the figure being printed.
type failure struct{ err error }

func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// run parses args and prints the selected figures to stdout; the warm-cache
// notes and flag errors go to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	sc := scale{out: stdout, log: stderr}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: fig2b,fig3,fig4,fig5,fig6,fig7,fig8,fig9,bounds,all; extensions: stencil,fig9m,degradation,interference")
	fs.IntVar(&sc.h, "h", 3, "dragonfly parameter h (6 = paper scale)")
	fs.IntVar(&sc.warmup, "warmup", 3000, "warm-up cycles per point")
	fs.IntVar(&sc.measure, "measure", 5000, "measurement cycles per point")
	fs.IntVar(&sc.burst, "burst", 100, "burst size per node for fig7 (paper: 2000)")
	fs.Uint64Var(&sc.seed, "seed", 1, "random seed")
	fs.IntVar(&sc.points, "points", 8, "load points per sweep")
	fs.StringVar(&sc.svgDir, "svg", "", "directory to write one SVG chart per figure (optional)")
	fs.IntVar(&sc.workers, "workers", 0, "pool workers per network, stealing whole dragonfly groups (0/1 = no pool; bit-identical results, useful at h=6)")
	faults := fs.String("faults", "", "fault schedule applied to every run: a JSON file of Fault objects, or inline like link@5000:12:7")
	fs.StringVar(&sc.ckptDir, "checkpoint", "", "directory to write per-point warm snapshots into (reuse with -restore)")
	fs.StringVar(&sc.restDir, "restore", "", "directory of warm snapshots: sweep points found there skip warmup, bit-identically")
	if err = fs.Parse(args); err != nil {
		return err
	}
	if *faults != "" {
		sc.faults, err = ofar.LoadFaults(*faults)
		check(err)
	}
	if sc.svgDir != "" {
		check(os.MkdirAll(sc.svgDir, 0o755))
	}
	name, found := strings.ToLower(*fig), false
	for _, f := range ofar.PaperFigures(sc.h) {
		if f.ID != name && (name != "all" || f.Extension) {
			continue
		}
		found = true
		sc.printf("\n================ %s ================\n", f.Title)
		driver, ok := drivers[f.ID]
		if !ok {
			driver = sweepFigure
		}
		driver(&sc, f)
	}
	if !found {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}

// drivers print the figures that are not steady-state load sweeps; every
// other figure is printed by sweepFigure.
var drivers = map[string]func(*scale, ofar.Figure){
	"bounds":       bounds,
	"fig2b":        fig2b,
	"fig6":         fig6,
	"fig7":         fig7,
	"stencil":      stencil,
	"degradation":  degradation,
	"interference": interference,
}

func (sc *scale) printf(format string, a ...any) { fmt.Fprintf(sc.out, format, a...) }

// resolve gives every figure run its configuration and pattern: the series on
// pattern under -seed, -workers and -faults, through Experiment.Resolve. The
// windows stay the flags', so -warmup 0 means 0 cycles.
func (sc *scale) resolve(s ofar.Series, pattern string) ofar.Resolved {
	e := s.Experiment
	cfg := ofar.DefaultConfig(e.H)
	if e.Config != nil {
		cfg = *e.Config
	}
	cfg.Workers, cfg.Faults = sc.workers, sc.faults
	e.Config, e.Seed, e.Pattern = &cfg, &sc.seed, pattern
	r, err := e.Resolve()
	check(err)
	return r
}

// steady runs series s on one panel.
func (sc *scale) steady(s ofar.Series, p ofar.Panel) ofar.SteadyResult {
	r := sc.resolve(s, p.Pattern)
	res, err := ofar.RunSteady(r.Config, r.Pattern, p.Load, sc.warmup, sc.measure)
	check(err)
	return res
}

// writeChart saves a chart into the -svg directory (no-op when unset).
func (sc *scale) writeChart(name string, c *plot.Chart) {
	if sc.svgDir == "" {
		return
	}
	path := filepath.Join(sc.svgDir, name+".svg")
	check(os.WriteFile(path, []byte(c.SVG()), 0o644))
	sc.printf("[wrote %s]\n", path)
}

// throughputCharts titles the sweep figures drawn as one throughput chart per
// panel; the others get a latency and a throughput chart.
var throughputCharts = map[string]string{
	"fig8":  "Fig. 8 — %s physical vs embedded ring",
	"fig9":  "Fig. 9 — %s with reduced VCs",
	"fig9m": "Fig. 9 scenario + congestion management (%s)",
}

// sweepFigure prints a steady-state figure: per panel, the average latency
// and accepted throughput of every series along the panel's load axis, run
// with the warm cache when -checkpoint/-restore are set. Rows are
// bit-identical to per-point RunSteady runs either way.
func sweepFigure(sc *scale, f ofar.Figure) {
	for _, p := range f.Panels {
		loads := make([]float64, sc.points)
		for j := range loads {
			loads[j] = p.Load * float64(j+1) / float64(sc.points)
		}
		rs := make([][]ofar.SteadyResult, len(f.Series))
		thr := &plot.Chart{Title: f.Title + " — throughput", XLabel: "offered load (phits/node/cycle)", YLabel: "accepted (phits/node/cycle)"}
		lat := &plot.Chart{Title: f.Title + " — latency", XLabel: thr.XLabel, YLabel: "avg latency (cycles)"}
		for i, s := range f.Series {
			r := sc.resolve(s, p.Pattern)
			var st ofar.SweepStats
			var err error
			rs[i], st, err = ofar.RunLoadSweepOpt(r.Config, r.Pattern, loads, sc.warmup, sc.measure,
				ofar.SweepOptions{CheckpointDir: sc.ckptDir, RestoreDir: sc.restDir})
			check(err)
			if sc.ckptDir != "" || sc.restDir != "" {
				fmt.Fprintf(sc.log, "experiments: %s %s: warm cache: %d restored (%d warmup cycles skipped), %d warmed\n",
					r.Config.Routing, r.Pattern.Name(), st.Restored, st.WarmupCyclesSkipped, st.Warmed)
			}
			var lp, tp []plot.Point
			for j, res := range rs[i] {
				lp = append(lp, plot.Point{X: loads[j], Y: res.AvgLatency})
				tp = append(tp, plot.Point{X: loads[j], Y: res.Throughput})
			}
			lat.Add(s.Label, lp)
			thr.Add(s.Label, tp)
		}
		if len(f.Panels) > 1 {
			sc.printf("\n-- pattern %s --\n", p.Pattern)
		}
		sc.printf("%-8s", "load")
		for _, s := range f.Series {
			sc.printf("%18s %18s", s.Label+"-lat", s.Label+"-thr")
		}
		sc.printf("\n")
		for j, load := range loads {
			sc.printf("%-8.3f", load)
			for i := range f.Series {
				sc.printf("%18.1f %18.4f", rs[i][j].AvgLatency, rs[i][j].Throughput)
			}
			sc.printf("\n")
		}
		format, perPanel := throughputCharts[f.ID]
		if !perPanel {
			sc.writeChart(f.ID+"_latency", lat)
			sc.writeChart(f.ID+"_throughput", thr)
			continue
		}
		thr.Title, thr.XLabel = fmt.Sprintf(format, p.Pattern), "offered load"
		name := f.ID
		if len(f.Panels) > 1 {
			name += "_" + strings.ToLower(strings.ReplaceAll(p.Pattern, "+", ""))
		}
		sc.writeChart(name, thr)
	}
}

// bounds prints the §III analytic throughput ceilings next to measured
// saturation values.
func bounds(sc *scale, f ofar.Figure) {
	d, err := topology.NewBalanced(sc.h) // the network of DefaultConfig(h)
	check(err)
	sc.printf("network: h=%d, %d nodes, %d routers, %d groups\n", sc.h, d.Nodes, d.Routers, d.G)
	sc.printf("MIN worst case (group->group): analytic %.4f\n", d.MinGlobalWorstCaseThroughput())
	sc.printf("MIN worst case (router->router local): analytic %.4f\n", d.MinLocalWorstCaseThroughput())
	sc.printf("VAL global-link bound: %.3f\n", d.ValiantThroughputBound())
	sc.printf("VAL ADV+h local l2 cap: analytic %.4f (1/h = %.4f)\n",
		d.AdvValiantLocalCap(sc.h), d.ValiantLocalSaturationBound())
	minimal, valiant := f.Series[0], f.Series[1]
	sc.printf("measured: %s ADV+h saturation %.4f, %s ADV+h saturation %.4f\n", minimal.Label,
		sc.steady(minimal, f.Panels[0]).Throughput, valiant.Label, sc.steady(valiant, f.Panels[0]).Throughput)
}

// fig2b: VAL saturation throughput versus ADV offset.
func fig2b(sc *scale, f ofar.Figure) {
	val := f.Series[0]
	d, err := topology.NewBalanced(sc.h)
	check(err)
	sc.printf("%-8s %-12s %-12s\n", "offset", "throughput", "analytic-cap")
	var meas, caps []plot.Point
	for i, p := range f.Panels {
		res := sc.steady(val, p)
		n := i + 1                                   // panel i is ADV+(i+1)
		ceiling := min(d.AdvValiantLocalCap(n), 0.5) // global-link bound dominates
		sc.printf("%-8d %-12.4f %-12.4f\n", n, res.Throughput, ceiling)
		meas = append(meas, plot.Point{X: float64(n), Y: res.Throughput})
		caps = append(caps, plot.Point{X: float64(n), Y: ceiling})
	}
	ch := &plot.Chart{Title: "Fig. 2b — VAL throughput vs ADV offset", XLabel: "group offset N", YLabel: "saturation throughput"}
	ch.Add("measured", meas)
	ch.Add("analytic cap", caps)
	sc.writeChart("fig2b", ch)
}

// fig6: transient latency series for each pattern switch.
func fig6(sc *scale, f ofar.Figure) {
	for ci, p := range f.Panels {
		to, err := ofar.ParsePattern(p.To, sc.h)
		check(err)
		sc.printf("\n-- %s -> %s at load %.2f --\n", p.Pattern, p.To, p.Load)
		sc.printf("%-10s", "cycle")
		series := make([]map[int64]float64, len(f.Series))
		ch := &plot.Chart{Title: fmt.Sprintf("Fig. 6 — %s → %s (load %.2f)", p.Pattern, p.To, p.Load),
			XLabel: "send cycle relative to switch", YLabel: "avg latency (cycles)"}
		for i, s := range f.Series {
			sc.printf("%12s", s.Label)
			r := sc.resolve(s, p.Pattern)
			res, err := ofar.RunTransient(r.Config, r.Pattern, to, p.Load, sc.warmup, 3000, 4000, 200)
			check(err)
			series[i] = map[int64]float64{}
			var pts []plot.Point
			for _, pt := range res.Points {
				series[i][pt.Cycle] = pt.MeanLatency
				pts = append(pts, plot.Point{X: float64(pt.Cycle), Y: pt.MeanLatency})
			}
			ch.Add(s.Label, pts)
		}
		sc.printf("\n")
		for cyc := int64(-1000); cyc <= 3000; cyc += 200 {
			sc.printf("%-10d", cyc)
			for _, m := range series {
				if v, ok := m[cyc]; ok {
					sc.printf("%12.1f", v)
				} else {
					sc.printf("%12s", "-")
				}
			}
			sc.printf("\n")
		}
		sc.writeChart(fmt.Sprintf("fig6_case%d", ci+1), ch)
	}
}

// fig7: burst consumption time, normalized to the first series (PB).
func fig7(sc *scale, f ofar.Figure) {
	sc.printf("burst: %d packets/node\n%-8s", sc.burst, "pattern")
	for _, s := range f.Series {
		sc.printf(" %12s", s.Label+"-cycles")
	}
	for _, s := range f.Series[1:] {
		sc.printf(" %10s", s.Label+"/"+f.Series[0].Label)
	}
	sc.printf("\n")
	ratios := make([][]plot.Point, len(f.Series)) // per series, its time over the first's per panel
	for pi, p := range f.Panels {
		sc.printf("%-8s", p.Pattern)
		var first float64
		for i, s := range f.Series {
			r := sc.resolve(s, p.Pattern)
			res, err := ofar.RunBurst(r.Config, r.Pattern, sc.burst, maxBurstCycles)
			check(err)
			sc.printf(" %12d", res.Cycles)
			if i == 0 {
				first = float64(res.Cycles)
			}
			ratios[i] = append(ratios[i], plot.Point{X: float64(pi), Y: float64(res.Cycles) / first})
		}
		for _, pts := range ratios[1:] {
			sc.printf(" %10.3f", pts[pi].Y)
		}
		sc.printf("\n")
	}
	sc.printf("%-8s%s", "average", strings.Repeat(" ", 13*len(f.Series)))
	ch := &plot.Chart{Title: "Fig. 7 — burst time normalized to PB (lower is better)",
		XLabel: "pattern index (UN, ADV+2, ADV+h, MIX1..3)", YLabel: "time / PB time"}
	for i, s := range f.Series[1:] {
		var sum float64
		for _, pt := range ratios[i+1] {
			sum += pt.Y
		}
		sc.printf(" %10.3f", sum/float64(len(f.Panels)))
		ch.Add(s.Label, ratios[i+1])
	}
	sc.printf("\n")
	sc.writeChart("fig7", ch)
}

// stencil reproduces the repository's §III application-workload table:
// each series × {linear, random} task mapping on a 3-D halo exchange.
func stencil(sc *scale, f ofar.Figure) {
	d, err := topology.NewBalanced(sc.h) // the network of DefaultConfig(h)
	check(err)
	dims := ofar.CubicDims(d.Nodes)
	sc.printf("task grid: %dx%dx%d\n", dims[0], dims[1], dims[2])
	sc.printf("%-10s %-10s %12s %12s\n", "routing", "mapping", "latency@0.3", "saturation")
	for _, s := range f.Series {
		cfg := sc.resolve(s, "").Config
		for _, mapping := range []string{"linear", "random"} {
			ps := ofar.Stencil3D(dims[0], dims[1], dims[2], mapping == "random")
			lat, err := ofar.RunSteady(cfg, ps, 0.3, sc.warmup, sc.measure)
			check(err)
			sat, err := ofar.RunSteady(cfg, ps, 1.0, sc.warmup, sc.measure)
			check(err)
			sc.printf("%-10s %-10s %12.1f %12.4f\n", s.Label, mapping, lat.AvgLatency, sat.Throughput)
		}
	}
}

// interference measures how much concurrent jobs hurt each other: a mixed
// job set shares the network, then each job re-runs with every other job
// silenced but placement unchanged, and the table reports per-job shared p99
// and p99(shared)/p99(alone) for each routing and task mapping.
// Linear mapping isolates each job in its own groups, so MIN shows almost no
// interference but a wide per-job p99 skew; OFAR's misrouting exports each
// job's load onto its neighbors' groups and rings. Random mapping makes every
// job share every link and flattens the skew for both routings.
func interference(sc *scale, f ofar.Figure) {
	sc.printf("job set: %s\n", sc.resolve(f.Series[0], "").Jobs.Name())
	sc.printf("%-10s %-10s %-44s %s\n", "routing", "mapping", "per-job shared p99 (cycles)", "p99 slowdown")
	for _, s := range f.Series {
		r := sc.resolve(s, "")
		res, err := ofar.RunInterference(r.Config, *r.Jobs, 1.0, sc.warmup, sc.measure)
		check(err)
		shared, slow := "", ""
		for _, p := range res.Points {
			shared += fmt.Sprintf(" %s=%.0f", p.Job, p.SharedP99)
			slow += fmt.Sprintf(" %s=%.2f", p.Job, p.SlowdownP99)
		}
		sc.printf("%-10s %-10s %-44s%s\n", s.Routing, s.JobMap, shared, slow)
	}
}

// degradation measures graceful degradation: OFAR on uniform traffic with
// an increasing number of failed global links, killed mid-warm-up so the
// measurement window sees only the degraded network.
func degradation(sc *scale, f ofar.Figure) {
	p := f.Panels[0]
	r := sc.resolve(f.Series[0], p.Pattern)
	r.Config.Faults = nil // RunDegradation installs its own schedule per point
	pts, err := ofar.RunDegradation(r.Config, r.Pattern, p.Load, int64(sc.warmup/2), 4, sc.warmup, sc.measure)
	check(err)
	sc.printf("%-12s %12s %12s %12s %10s %10s %10s\n",
		"failed-links", "throughput", "avg-lat", "p99-lat", "dropped", "reroutes", "flows")
	ch := &plot.Chart{Title: "Graceful degradation — OFAR, uniform at 0.3",
		XLabel: "failed global links", YLabel: "normalized to fault-free"}
	var thr, p99 []plot.Point
	for _, pt := range pts {
		sc.printf("%-12d %12.4f %12.1f %12.1f %10d %10d %10d\n",
			pt.FailedLinks, pt.Throughput, pt.AvgLatency, pt.P99Latency,
			pt.Dropped, pt.FaultReroutes, pt.AffectedFlows)
		thr = append(thr, plot.Point{X: float64(pt.FailedLinks), Y: pt.Throughput / pts[0].Throughput})
		p99 = append(p99, plot.Point{X: float64(pt.FailedLinks), Y: pt.P99Latency / pts[0].P99Latency})
	}
	ch.Add("throughput", thr)
	ch.Add("p99 latency", p99)
	sc.writeChart("degradation", ch)
}
