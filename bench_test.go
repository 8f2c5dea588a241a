package ofar

import (
	"fmt"
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Ablation and engine micro-benchmarks at bench scale (h=2 unless noted:
// 72 nodes, short windows). The paper's figures are declared once, in
// PaperFigures: the shape tests check them and cmd/experiments prints them.

const (
	benchWarm = 1500
	benchMeas = 2500
)

// benchThroughput runs one saturated point per iteration and reports its
// accepted throughput.
func benchThroughput(b *testing.B, cfg Config, ps PatternSpec) {
	b.Helper()
	var thr float64
	for i := 0; i < b.N; i++ {
		r, err := RunSteady(cfg, ps, 1.0, benchWarm, benchMeas)
		if err != nil {
			b.Fatal(err)
		}
		thr = r.Throughput
	}
	b.ReportMetric(thr, "phits/node/cycle")
}

// --- ablation benches (DESIGN.md §7) ----------------------------------------

// BenchmarkAblationThreshold: the misroute-threshold knobs of both
// policies — the §IV-B static candidate bound and the §V variable factor.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, static := range []float64{0.2, 0.4, 0.8} {
		b.Run(fmt.Sprintf("static%.1f", static), func(b *testing.B) {
			cfg := DefaultConfig(2).WithRouting(OFAR)
			cfg.OFAR.StaticNonMin = static
			benchThroughput(b, cfg, Adv(2))
		})
	}
	for _, factor := range []float64{0.5, 0.9, 1.0} {
		b.Run(fmt.Sprintf("variable%.1f", factor), func(b *testing.B) {
			cfg := DefaultConfig(2).WithRouting(OFAR)
			cfg.OFAR = DefaultOFARVariableConfig()
			cfg.OFAR.NonMinFactor = factor
			benchThroughput(b, cfg, Adv(2))
		})
	}
}

// BenchmarkAblationEscapeTimeout: how soon blocked packets divert to the
// escape ring.
func BenchmarkAblationEscapeTimeout(b *testing.B) {
	for _, to := range []int{0, 32, 256} {
		b.Run(fmt.Sprintf("timeout%d", to), func(b *testing.B) {
			cfg := DefaultConfig(2).WithRouting(OFAR)
			cfg.OFAR.EscapeTimeout = to
			benchThroughput(b, cfg, Adv(2))
		})
	}
}

// BenchmarkAblationMultiRing: one vs two embedded escape rings.
func BenchmarkAblationMultiRing(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("rings%d", k), func(b *testing.B) {
			cfg := DefaultConfig(2).WithRouting(OFAR)
			cfg.Ring = RingEmbedded
			cfg.NumRings = k
			benchThroughput(b, cfg, Adv(2))
		})
	}
}

// --- engine micro-benchmarks -------------------------------------------------

// BenchmarkSimCycle measures raw simulation speed: cycles per second of an
// h=3 network under moderate uniform load.
func BenchmarkSimCycle(b *testing.B) {
	cfg := DefaultConfig(3)
	s, err := NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.SetTraffic(Uniform(), 0.3)
	s.Run(2000) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSimCycleSaturated: the worst-case per-cycle cost (every buffer
// occupied, maximal routing work).
func BenchmarkSimCycleSaturated(b *testing.B) {
	cfg := DefaultConfig(3)
	s, err := NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.SetTraffic(Adv(3), 1.0)
	s.Run(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMinimalPort: topology routing-table lookup cost.
func BenchmarkMinimalPort(b *testing.B) {
	d, err := topology.NewBalanced(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += d.MinimalPort(i%d.Routers, (i*7)%d.Nodes)
	}
	_ = acc
}

// BenchmarkTrafficGen: pattern destination sampling.
func BenchmarkTrafficGen(b *testing.B) {
	d, _ := topology.NewBalanced(6)
	for _, name := range []string{"UN", "ADV", "MIX"} {
		b.Run(name, func(b *testing.B) {
			sim, _ := NewSimulator(DefaultConfig(2))
			_ = sim
			var p traffic.Pattern
			switch name {
			case "UN":
				p = traffic.NewUniform(d)
			case "ADV":
				p = traffic.NewAdv(d, 6)
			default:
				p = traffic.NewMix("m", []traffic.Pattern{traffic.NewUniform(d), traffic.NewAdv(d, 6)}, []float64{1, 1})
			}
			rng := newBenchRNG()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += p.Dest(rng, i%d.Nodes)
			}
			_ = acc
		})
	}
}

// BenchmarkAblationSelection tests the §IV-B claim that random misroute
// candidate selection outperforms always picking the least-occupied output
// (which synchronizes competing inputs onto the same port).
func BenchmarkAblationSelection(b *testing.B) {
	for _, least := range []bool{false, true} {
		name := "random"
		if least {
			name = "leastOccupied"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(3).WithRouting(OFAR)
			cfg.OFAR.LeastOccupied = least
			benchThroughput(b, cfg, Adv(3))
		})
	}
}

// BenchmarkAblationAllocIters: the paper's separable allocator runs 3
// arbitration iterations ("resembling the design in [22]"); this measures
// what the iterations buy.
func BenchmarkAblationAllocIters(b *testing.B) {
	for _, iters := range []int{1, 3} {
		b.Run(fmt.Sprintf("iters%d", iters), func(b *testing.B) {
			cfg := DefaultConfig(2).WithRouting(OFAR)
			cfg.AllocIters = iters
			benchThroughput(b, cfg, Uniform())
		})
	}
}

// BenchmarkAblationPolicy: the §IV-B static threshold policy (repository
// default) against the paper's §V variable policy, on both traffic kinds.
func BenchmarkAblationPolicy(b *testing.B) {
	cases := []struct {
		name string
		ps   PatternSpec
	}{{"UN", Uniform()}, {"ADVh", Adv(2)}}
	for _, c := range cases {
		for _, variable := range []bool{false, true} {
			name := c.name + "/static"
			if variable {
				name = c.name + "/variable"
			}
			b.Run(name, func(b *testing.B) {
				cfg := DefaultConfig(2).WithRouting(OFAR)
				if variable {
					cfg.OFAR = DefaultOFARVariableConfig()
				}
				benchThroughput(b, cfg, c.ps)
			})
		}
	}
}
