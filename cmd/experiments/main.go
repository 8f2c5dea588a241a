// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Figs. 2b–9) and the repository's extensions of them.
// Every figure is an entry of ofar.PaperFigures, the table the shape tests
// check, and every point of it one ofar.Resolved.Run; this command only
// prints them. EXPERIMENTS.md records the measured outputs next to the
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
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ofar"
	"ofar/internal/cli"
	"ofar/internal/plot"
	"ofar/internal/topology"
)

// scale is what every figure run shares: the flags and the output streams.
type scale struct {
	*cli.Run
	points, burst int    // load points per sweep, packets per node in fig7
	svgDir        string // when non-empty, write an SVG per figure
	out, log      io.Writer
}

func main() { cli.Main("experiments", run) }

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
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sc := scale{Run: cli.BindRun(fs), out: stdout, log: stderr}
	fig := fs.String("fig", "all", "figure to regenerate: fig2b,fig3,fig4,fig5,fig6,fig7,fig8,fig9,bounds,all; extensions: stencil,fig9m,degradation,interference")
	fs.IntVar(&sc.burst, "burst", 100, "burst size per node for fig7 (paper: 2000)")
	fs.IntVar(&sc.points, "points", 8, "load points per sweep")
	fs.StringVar(&sc.svgDir, "svg", "", "directory to write one SVG chart per figure (optional)")
	if err = sc.Parse(args); err != nil {
		return err
	}
	if sc.points < 1 {
		return fmt.Errorf("-points %d: want ≥ 1", sc.points)
	}
	if sc.svgDir != "" {
		check(os.MkdirAll(sc.svgDir, 0o755))
	}
	name, found := strings.ToLower(*fig), false
	for _, f := range ofar.PaperFigures(sc.H, sc.Warmup) {
		if f.ID != name && (name != "all" || f.Extension) {
			continue
		}
		found = true
		sc.printf("\n================ %s ================\n", f.Title)
		if printer, ok := printers[f.ID]; ok {
			printer(&sc, f, sc.results(f, 1))
		} else {
			sweepFigure(&sc, f, sc.results(f, sc.points))
		}
	}
	if !found {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}

// printers print the figures that are not steady-state load sweeps from
// res[panel][series]; sweepFigure prints every other figure.
var printers = map[string]func(*scale, ofar.Figure, [][]ofar.PointResult){
	"bounds": bounds, "fig2b": fig2b, "fig6": fig6, "fig7": fig7,
	"stencil": stencil, "degradation": degradation, "interference": interference,
}

func (sc *scale) printf(format string, a ...any) { fmt.Fprintf(sc.out, format, a...) }

// results runs every series of f on every panel through Resolved.Run, at
// loads points along the panel's load axis (at its load for loads = 1), under
// -seed, -workers, -faults and -burst, the flags' windows (-warmup 0 is 0
// cycles) and the warm cache of -checkpoint/-restore: res[panel][series*loads+load].
func (sc *scale) results(f ofar.Figure, loads int) [][]ofar.PointResult {
	res, restored := make([][]ofar.PointResult, len(f.Panels)), 0
	for pi, p := range f.Panels {
		for _, s := range f.Series {
			e, cfg := s.Experiment, ofar.DefaultConfig(s.H)
			if e.Config != nil {
				cfg = *e.Config
			}
			cfg.Workers, cfg.Faults = sc.Workers, slices.Concat(cfg.Faults, sc.Faults)
			e.Config, e.Seed, e.Pattern, e.Transient, e.Burst = &cfg, &sc.Seed, p.Pattern, p.Transient, p.Burst
			if p.Burst != nil {
				e.Burst = &ofar.Burst{PerNode: sc.burst, MaxCycles: p.Burst.MaxCycles}
			}
			r, err := sc.Resolve(e)
			check(err)
			for j := range loads {
				pt, err := r.Run(p.Load*float64(j+1)/float64(loads), sc.SweepOptions)
				check(err)
				res[pi] = append(res[pi], pt)
				if pt.Restored {
					restored++
				}
			}
		}
	}
	if sc.CheckpointDir != "" || sc.RestoreDir != "" {
		fmt.Fprintf(sc.log, "experiments: %s: warm cache: %d point(s) restored (%d warmup cycles skipped)\n",
			f.ID, restored, restored*sc.Warmup)
	}
	return res
}

// writeChart saves a chart into the -svg directory (no-op when unset).
func (sc *scale) writeChart(name string, c *plot.Chart) {
	if sc.svgDir != "" {
		path := filepath.Join(sc.svgDir, name+".svg")
		check(os.WriteFile(path, []byte(c.SVG()), 0o644))
		sc.printf("[wrote %s]\n", path)
	}
}

// throughputCharts titles the sweep figures drawn as one throughput chart per
// panel; the others get a latency and a throughput chart.
var throughputCharts = map[string]string{
	"fig8":  "Fig. 8 — %s physical vs embedded ring",
	"fig9":  "Fig. 9 — %s with reduced VCs",
	"fig9m": "Fig. 9 scenario + congestion management (%s)",
}

// sweepFigure prints a steady-state figure: per panel, the average latency
// and accepted throughput of every series along the panel's load axis.
func sweepFigure(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	for pi, p := range f.Panels {
		thr := &plot.Chart{Title: f.Title + " — throughput", XLabel: "offered load (phits/node/cycle)", YLabel: "accepted (phits/node/cycle)"}
		lat := &plot.Chart{Title: f.Title + " — latency", XLabel: thr.XLabel, YLabel: "avg latency (cycles)"}
		if len(f.Panels) > 1 {
			sc.printf("\n-- pattern %s --\n", p.Pattern)
		}
		sc.printf("%-8s", "load")
		for i, s := range f.Series {
			var lp, tp []plot.Point
			for _, pt := range res[pi][i*sc.points : (i+1)*sc.points] {
				lp = append(lp, plot.Point{X: pt.Load, Y: pt.AvgLatency})
				tp = append(tp, plot.Point{X: pt.Load, Y: pt.Throughput})
			}
			lat.Add(s.Label, lp)
			thr.Add(s.Label, tp)
			sc.printf("%18s %18s", s.Label+"-lat", s.Label+"-thr")
		}
		for j := range sc.points {
			sc.printf("\n%-8.3f", res[pi][j].Load)
			for i := range f.Series {
				sc.printf("%18.1f %18.4f", res[pi][i*sc.points+j].AvgLatency, res[pi][i*sc.points+j].Throughput)
			}
		}
		sc.printf("\n")
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
func bounds(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	d, err := topology.NewBalanced(sc.H) // the network of DefaultConfig(h)
	check(err)
	sc.printf("network: h=%d, %d nodes, %d routers, %d groups\n", sc.H, d.Nodes, d.Routers, d.G)
	sc.printf("MIN worst case (group->group): analytic %.4f\n", d.MinGlobalWorstCaseThroughput())
	sc.printf("MIN worst case (router->router local): analytic %.4f\n", d.MinLocalWorstCaseThroughput())
	sc.printf("VAL global-link bound: %.3f\n", d.ValiantThroughputBound())
	sc.printf("VAL ADV+h local l2 cap: analytic %.4f (1/h = %.4f)\n",
		d.AdvValiantLocalCap(sc.H), d.ValiantLocalSaturationBound())
	sc.printf("measured: %s ADV+h saturation %.4f, %s ADV+h saturation %.4f\n",
		f.Series[0].Label, res[0][0].Throughput, f.Series[1].Label, res[0][1].Throughput)
}

// fig2b: VAL saturation throughput versus ADV offset.
func fig2b(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	d, err := topology.NewBalanced(sc.H)
	check(err)
	sc.printf("%-8s %-12s %-12s\n", "offset", "throughput", "analytic-cap")
	ch := &plot.Chart{Title: "Fig. 2b — VAL throughput vs ADV offset", XLabel: "group offset N", YLabel: "saturation throughput"}
	var meas, caps []plot.Point
	for i, pts := range res {
		n := i + 1                                   // panel i is ADV+(i+1)
		ceiling := min(d.AdvValiantLocalCap(n), 0.5) // global-link bound dominates
		sc.printf("%-8d %-12.4f %-12.4f\n", n, pts[0].Throughput, ceiling)
		meas = append(meas, plot.Point{X: float64(n), Y: pts[0].Throughput})
		caps = append(caps, plot.Point{X: float64(n), Y: ceiling})
	}
	ch.Add("measured", meas)
	ch.Add("analytic cap", caps)
	sc.writeChart("fig2b", ch)
}

// fig6: transient latency series for each pattern switch.
func fig6(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	for pi, p := range f.Panels {
		t := p.Transient
		sc.printf("\n-- %s -> %s at load %.2f --\n%-10s", p.Pattern, t.After, p.Load, "cycle")
		ch := &plot.Chart{Title: fmt.Sprintf("Fig. 6 — %s → %s (load %.2f)", p.Pattern, t.After, p.Load),
			XLabel: "send cycle relative to switch", YLabel: "avg latency (cycles)"}
		series := make([]map[int64]float64, len(f.Series))
		for i, s := range f.Series {
			sc.printf("%12s", s.Label)
			series[i] = map[int64]float64{}
			var pts []plot.Point
			for _, pt := range res[pi][i].Transient.Points {
				series[i][pt.Cycle] = pt.MeanLatency
				pts = append(pts, plot.Point{X: float64(pt.Cycle), Y: pt.MeanLatency})
			}
			ch.Add(s.Label, pts)
		}
		for cyc := int64(-1000); cyc <= int64(t.Run); cyc += int64(t.Bucket) {
			sc.printf("\n%-10d", cyc)
			for _, m := range series {
				if v, ok := m[cyc]; ok {
					sc.printf("%12.1f", v)
				} else {
					sc.printf("%12s", "-")
				}
			}
		}
		sc.printf("\n")
		sc.writeChart(fmt.Sprintf("fig6_case%d", pi+1), ch)
	}
}

// fig7: burst consumption time, normalized to the first series (PB).
func fig7(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	sc.printf("burst: %d packets/node\n%-8s", sc.burst, "pattern")
	for _, s := range f.Series {
		sc.printf(" %12s", s.Label+"-cycles")
	}
	for _, s := range f.Series[1:] {
		sc.printf(" %10s", s.Label+"/"+f.Series[0].Label)
	}
	ratios := make([][]plot.Point, len(f.Series)) // per series, its time over the first's per panel
	sums := make([]float64, len(f.Series))
	for pi, row := range res {
		sc.printf("\n%-8s", f.Panels[pi].Pattern)
		for i, pt := range row {
			sc.printf(" %12d", pt.Burst.Cycles)
			ratios[i] = append(ratios[i], plot.Point{X: float64(pi), Y: float64(pt.Burst.Cycles) / float64(row[0].Burst.Cycles)})
			sums[i] += ratios[i][pi].Y
		}
		for _, pts := range ratios[1:] {
			sc.printf(" %10.3f", pts[pi].Y)
		}
	}
	sc.printf("\n%-8s%s", "average", strings.Repeat(" ", 13*len(f.Series)))
	ch := &plot.Chart{Title: "Fig. 7 — burst time normalized to PB (lower is better)",
		XLabel: "pattern index (UN, ADV+2, ADV+h, MIX1..3)", YLabel: "time / PB time"}
	for i, s := range f.Series[1:] {
		sc.printf(" %10.3f", sums[i+1]/float64(len(res)))
		ch.Add(s.Label, ratios[i+1])
	}
	sc.printf("\n")
	sc.writeChart("fig7", ch)
}

// stencil prints the repository's §III application-workload table: each
// series under each task mapping of a 3-D halo exchange, whose panels come in
// (low load, saturation) pairs per mapping.
func stencil(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	grid, _, _ := strings.Cut(strings.TrimPrefix(f.Panels[0].Pattern, "ST"), "/")
	sc.printf("task grid: %s\n%-10s %-10s %12s %12s\n", grid, "routing", "mapping", "latency@0.3", "saturation")
	for si, s := range f.Series {
		for pi := 0; pi < len(f.Panels); pi += 2 {
			mapping := "linear"
			if strings.HasSuffix(f.Panels[pi].Pattern, "/rnd") {
				mapping = "random"
			}
			sc.printf("%-10s %-10s %12.1f %12.4f\n", s.Label, mapping, res[pi][si].AvgLatency, res[pi+1][si].Throughput)
		}
	}
}

// interference prints how much concurrent jobs hurt each other: per routing
// and task mapping, each job's p99 latency in the shared run and its ratio to
// the job's p99 alone, from the series after the shared one (EXPERIMENTS.md
// discusses the mapping effects).
func interference(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	jobs := strings.Count(f.Series[0].Jobs, ",") + 1
	sc.printf("job set: %s\n", res[0][0].Pattern)
	sc.printf("%-10s %-10s %-44s %s\n", "routing", "mapping", "per-job shared p99 (cycles)", "p99 slowdown")
	for si := 0; si < len(f.Series); si += 1 + jobs {
		shared, slow := "", ""
		for i, job := range res[0][si].Jobs[:jobs] { // the background slot has no alone run
			p99, alone := job.P99Latency, res[0][si+1+i].Jobs[i].P99Latency
			slowdown := 0.0
			if alone > 0 && !math.IsNaN(p99) && !math.IsNaN(alone) {
				slowdown = p99 / alone
			}
			shared += fmt.Sprintf(" %s=%.0f", job.Job, p99)
			slow += fmt.Sprintf(" %s=%.2f", job.Job, slowdown)
		}
		sc.printf("%-10s %-10s %-44s%s\n", f.Series[si].Routing, f.Series[si].JobMap, shared, slow)
	}
}

// degradation prints graceful degradation: OFAR on uniform traffic with each
// series' count of global links failed mid-warm-up.
func degradation(sc *scale, f ofar.Figure, res [][]ofar.PointResult) {
	sc.printf("%-12s %12s %12s %12s %10s %10s %10s\n",
		"failed-links", "throughput", "avg-lat", "p99-lat", "dropped", "reroutes", "flows")
	var thr, p99 []plot.Point
	for k, pt := range res[0] {
		sc.printf("%-12s %12.4f %12.1f %12.1f %10d %10d %10d\n", f.Series[k].Label, pt.Throughput,
			pt.AvgLatency, pt.P99Latency, pt.Dropped, pt.FaultReroutes, pt.AffectedFlows)
		thr = append(thr, plot.Point{X: float64(k), Y: pt.Throughput / res[0][0].Throughput})
		p99 = append(p99, plot.Point{X: float64(k), Y: pt.P99Latency / res[0][0].P99Latency})
	}
	ch := &plot.Chart{Title: "Graceful degradation — OFAR, uniform at 0.3",
		XLabel: "failed global links", YLabel: "normalized to fault-free"}
	ch.Add("throughput", thr)
	ch.Add("p99 latency", p99)
	sc.writeChart("degradation", ch)
}
