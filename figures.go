package ofar

import (
	"fmt"
	"slices"
	"strings"

	"ofar/internal/network"
)

// Figure is one figure or table of the paper's evaluation (§III, §VI–§VII),
// or one of the repository's extensions of it. PaperFigures declares each
// once; the experiments command prints them and the shape tests check them.
// Every point of a figure is one series on one panel.
type Figure struct {
	ID        string // the experiments -fig name
	Title     string
	Extension bool // beyond the paper: not part of -fig all
	Panels    []Panel
	Series    []Series
}

// Panel is the traffic of a figure's points: a pattern and its load — the top
// of the load axis of a sweep, or the offered load of a single point, or the
// scale of a job set the series carry — or a pattern switch (Fig. 6), or a
// burst (Fig. 7, no load).
type Panel struct {
	Pattern   string // as Experiment.Pattern
	Load      float64
	Transient *Transient
	Burst     *Burst
}

// Series is one labelled curve of a figure, drawn on every panel: an
// Experiment naming its routing and, for a variant of the paper's
// configuration (escape ring, VC counts, congestion management, failed
// links), its Config, or its job set. The panel supplies the pattern, the
// load and the run shape; callers supply the windows.
type Series struct {
	Label string
	Experiment
}

// PaperFigures returns every figure on the balanced dragonfly with parameter
// h, the paper's first and the extensions last, for points that warm up for
// warmup cycles: the degradation figure fails its links halfway through.
func PaperFigures(h, warmup int) []Figure {
	advH := fmt.Sprintf("ADV+%d", h)
	routings := func(rts ...Routing) []Series {
		s := make([]Series, len(rts))
		for i, rt := range rts {
			s[i] = Series{Label: string(rt), Experiment: Experiment{H: h, Routing: string(rt)}}
		}
		return s
	}
	ofarOn := func(label string, variant func(*Config)) Series {
		cfg := DefaultConfig(h)
		variant(&cfg)
		return Series{Label: label, Experiment: Experiment{Config: &cfg, Routing: string(OFAR)}}
	}
	embedded := func(c *Config) { c.Ring = RingEmbedded }
	reducedVCs := func(c *Config) { embedded(c); c.LocalVCs, c.GlobalVCs, c.InjVCs = 2, 1, 2 }
	throttle := func(on bool) func(*Config) {
		return func(c *Config) { reducedVCs(c); c.Congestion.Enabled, c.Congestion.Threshold = on, 0.5 }
	}
	offsets := make([]Panel, 2*h*h) // every other group of the 2h²+1
	for i := range offsets {
		offsets[i] = Panel{Pattern: fmt.Sprintf("ADV+%d", i+1), Load: 1}
	}
	// The stencil grid: a near-cubic halo exchange over every node, at a low
	// load and at saturation, under linear and random task mapping.
	nodes := 2 * h * h * (2*h*h + 1)
	g := cubicDims(nodes)
	var stencil []Panel
	for _, m := range []string{"lin", "rnd"} {
		name := fmt.Sprintf("ST%dx%dx%d/%s", g[0], g[1], g[2], m)
		stencil = append(stencil, Panel{Pattern: name, Load: 0.3}, Panel{Pattern: name, Load: 1})
	}
	// Degradation: OFAR with 0..4 failed global links, failed mid-warm-up so
	// the measurement window sees only the degraded network.
	var degraded []Series
	for k := 0; k <= 4; k++ {
		cfg := DefaultConfig(h)
		if k > 0 {
			var err error
			if cfg.Faults, err = network.GlobalLinkFaults(cfg, int64(warmup/2), k); err != nil {
				break // a network with fewer global links
			}
		}
		degraded = append(degraded, Series{Label: fmt.Sprint(k), Experiment: Experiment{Config: &cfg, Routing: string(OFAR)}})
	}
	// The interference job set: a near-cubic stencil and an all-to-all on a
	// quarter of the nodes each, a ring on another quarter, a parameter-server
	// fan-in on an eighth, light uniform background on the rest. Each routing
	// runs it with linear and with random task mapping, shared, and then once
	// per job alone: the same placement with every other job's load and the
	// background zeroed.
	grid := cubicDims(nodes / 4)
	jobs := []string{fmt.Sprintf("stencil:%dx%dx%d@0.3", grid[0], grid[1], grid[2]),
		fmt.Sprintf("a2a:%d@0.5", nodes/4), fmt.Sprintf("ring:%d@0.2", nodes/4), fmt.Sprintf("ps:%d@0.4", max(nodes/8, 3))}
	var jobSeries []Series
	for _, rt := range []Routing{MIN, OFAR} {
		for _, m := range []string{"linear", "random"} {
			label := string(rt) + " " + m
			jobSeries = append(jobSeries, Series{Label: label,
				Experiment: Experiment{H: h, Routing: string(rt), Jobs: strings.Join(jobs, ","), JobMap: m, Background: 0.1}})
			for i, job := range jobs {
				alone := slices.Clone(jobs)
				for k, j := range alone {
					if k != i {
						alone[k] = j[:strings.IndexByte(j, '@')] + "@0"
					}
				}
				jobSeries = append(jobSeries, Series{Label: label + " alone " + job[:strings.IndexByte(job, ':')],
					Experiment: Experiment{H: h, Routing: string(rt), Jobs: strings.Join(alone, ","), JobMap: m}})
			}
		}
	}
	transient := func(after string) *Transient {
		return &Transient{After: after, Run: 3000, Drain: 4000, Bucket: 200}
	}
	burst := func(pattern string) Panel {
		return Panel{Pattern: pattern, Burst: &Burst{PerNode: 100, MaxCycles: 50_000_000}}
	}
	return []Figure{
		{ID: "bounds", Title: "§III analytic bounds vs simulation",
			Panels: []Panel{{Pattern: advH, Load: 1}}, Series: routings(MIN, VAL)},
		{ID: "fig2b", Title: "Fig. 2b — VAL throughput vs adversarial offset",
			Panels: offsets, Series: routings(VAL)},
		{ID: "fig3", Title: "Fig. 3 — uniform traffic (UN)",
			Panels: []Panel{{Pattern: "UN", Load: 1}}, Series: routings(MIN, PB, OFAR, OFARL)},
		{ID: "fig4", Title: "Fig. 4 — adversarial ADV+2",
			Panels: []Panel{{Pattern: "ADV+2", Load: 0.6}}, Series: routings(VAL, PB, OFAR, OFARL)},
		{ID: "fig5", Title: fmt.Sprintf("Fig. 5 — adversarial %s (ADV+h)", advH),
			Panels: []Panel{{Pattern: advH, Load: 0.6}}, Series: routings(VAL, PB, OFAR, OFARL)},
		{ID: "fig6", Title: "Fig. 6 — transient adaptation (latency by send cycle)",
			Panels: []Panel{{Pattern: "UN", Load: 0.14, Transient: transient("ADV+2")},
				{Pattern: "ADV+2", Load: 0.14, Transient: transient("UN")}, {Pattern: "ADV+2", Load: 0.12, Transient: transient(advH)}},
			Series: routings(PB, OFAR, OFARL)},
		{ID: "fig7", Title: "Fig. 7 — burst consumption, normalized to PB",
			Panels: []Panel{burst("UN"), burst("ADV+2"), burst(advH), burst("MIX1"), burst("MIX2"), burst("MIX3")},
			Series: routings(PB, OFAR, OFARL)},
		{ID: "fig8", Title: "Fig. 8 — physical vs embedded escape ring (OFAR)",
			Panels: []Panel{{Pattern: "UN", Load: 1}, {Pattern: "ADV+2", Load: 0.6}},
			Series: []Series{ofarOn("physical", func(c *Config) { c.Ring = RingPhysical }), ofarOn("embedded", embedded)}},
		{ID: "fig9", Title: "Fig. 9 — reduced VCs (2 local / 1 global, embedded ring)",
			Panels: []Panel{{Pattern: "UN", Load: 1}, {Pattern: "ADV+2", Load: 0.6}, {Pattern: advH, Load: 0.6}},
			Series: []Series{ofarOn("3L/2G VCs", embedded), ofarOn("2L/1G VCs", reducedVCs)}},

		{ID: "stencil", Title: "Extension — 3-D stencil halo exchange, mapping × routing", Extension: true,
			Panels: stencil, Series: routings(MIN, OFAR)},
		{ID: "fig9m", Title: "Extension — Fig. 9 scenario with injection-throttling congestion management", Extension: true,
			Panels: []Panel{{Pattern: advH, Load: 0.6}},
			Series: []Series{ofarOn("unmanaged", throttle(false)), ofarOn("managed", throttle(true))}},
		{ID: "degradation", Title: "Extension — graceful degradation under global-link faults (OFAR)", Extension: true,
			Panels: []Panel{{Pattern: "UN", Load: 0.3}}, Series: degraded},
		{ID: "interference", Title: "Extension — job interference, p99 slowdown = shared / alone", Extension: true,
			Panels: []Panel{{Load: 1}}, Series: jobSeries},
	}
}

// cubicDims picks the near-cubic x≤y≤z grid with the most cells ≤ n: the
// task grid of the stencil figure (all nodes) and of the interference job
// set's stencil (a quarter of them).
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
