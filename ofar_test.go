package ofar

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ofar/internal/network"
	"ofar/internal/stats"
	"ofar/internal/traffic"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(6)
	if cfg.P != 6 || cfg.A != 12 || cfg.H != 6 || cfg.Groups != 0 {
		t.Errorf("topology params: %+v", cfg)
	}
	if cfg.PacketSize != 8 || cfg.LocalLatency != 10 || cfg.GlobalLatency != 100 {
		t.Error("packet/latency params deviate from §V")
	}
	if cfg.LocalBuf != 32 || cfg.GlobalBuf != 256 {
		t.Error("FIFO sizes deviate from §V")
	}
	if cfg.LocalVCs != 3 || cfg.GlobalVCs != 2 || cfg.InjVCs != 3 {
		t.Error("VC counts deviate from §V")
	}
	if cfg.AllocIters != 3 {
		t.Error("allocator iterations deviate from §V")
	}
	if cfg.OFAR.ThMin != 1.0 || cfg.OFAR.StaticNonMin != 0.4 {
		t.Error("OFAR default should be the §IV-B static policy (see core.DefaultConfig)")
	}
	if v := DefaultOFARVariableConfig(); v.ThMin != 0 || v.NonMinFactor != 0.9 || v.StaticNonMin >= 0 {
		t.Error("paper §V variable policy misconfigured")
	}
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Topology()
	if d.Nodes != 5256 || d.Routers != 876 || d.G != 73 {
		t.Errorf("paper network size mismatch: %d nodes %d routers %d groups",
			d.Nodes, d.Routers, d.G)
	}
}

func TestPatternSpecs(t *testing.T) {
	if Uniform().Name() != "UN" {
		t.Error("uniform name")
	}
	if Adv(6).Name() != "ADV+6" {
		t.Error("adv name")
	}
	mixes := paperMixes(6)
	if len(mixes) != 3 || mixes[0].Name() != "MIX1" || mixes[2].Name() != "MIX3" {
		t.Error("paper mixes")
	}
}

func TestSimulatorStepControl(t *testing.T) {
	cfg := DefaultConfig(2)
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTraffic(Uniform(), 0.3)
	s.Run(500)
	if s.Now() != 500 {
		t.Errorf("now=%d", s.Now())
	}
	s.Step()
	if s.Now() != 501 {
		t.Errorf("now=%d", s.Now())
	}
	if s.Stats().Generated == 0 {
		t.Error("no traffic generated")
	}
	if s.Network() == nil {
		t.Error("network accessor")
	}
}

func TestRunSteadyBasic(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := RunSteady(cfg, Uniform(), 0.25, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != "UN" || res.Routing != OFAR || res.Load != 0.25 {
		t.Errorf("metadata: %+v", res)
	}
	// At 25% load the network accepts everything offered.
	if math.Abs(res.Throughput-0.25) > 0.02 {
		t.Errorf("throughput %.3f at load 0.25", res.Throughput)
	}
	// Zero-load latency is bounded below by the physical path: up to
	// 2 local + 1 global traversal plus serialization.
	if res.AvgLatency < 100 || res.AvgLatency > 400 {
		t.Errorf("latency %.1f implausible", res.AvgLatency)
	}
	if res.Delivered == 0 || res.AvgHops < 1 {
		t.Error("delivery stats empty")
	}
}

func TestRunSteadyRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.PacketSize = 0
	if _, err := RunSteady(cfg, Uniform(), 0.1, 10, 10); err == nil {
		t.Error("bad config accepted")
	}
}

// TestRunLoadSweepOptMatchesRunSteady: the concurrent sweep is the per-point
// RunSteady, row for row (every point builds its own network from cfg.Seed),
// its curve is sane below saturation, and offered load 1.0 reads a plausible
// saturation throughput.
func TestRunLoadSweepOptMatchesRunSteady(t *testing.T) {
	cfg := DefaultConfig(2).WithRouting(MIN)
	loads := []float64{0.1, 0.2, 0.3, 1.0}
	rs, st, err := RunLoadSweepOpt(cfg, Uniform(), loads, 500, 1500, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(loads) || st.Warmed != len(loads) || st.Restored != 0 {
		t.Fatalf("%d rows, stats %+v", len(rs), st)
	}
	for i, l := range loads {
		want, err := RunSteady(cfg, Uniform(), l, 500, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != want {
			t.Errorf("load %.1f: sweep row %+v, RunSteady %+v", l, rs[i], want)
		}
	}
	if rs[0].Throughput >= rs[2].Throughput {
		t.Errorf("throughput not increasing below saturation: %.3f vs %.3f",
			rs[0].Throughput, rs[2].Throughput)
	}
	if rs[0].AvgLatency > rs[2].AvgLatency {
		t.Errorf("latency decreasing with load: %.1f vs %.1f",
			rs[0].AvgLatency, rs[2].AvgLatency)
	}
	if sat := rs[3].Throughput; sat < 0.3 || sat > 1.0 {
		t.Errorf("UN saturation %.3f out of plausible range", sat)
	}
}

// transientPoint runs one transient point through Resolved.Run: from for
// warmup cycles, then to.
func transientPoint(cfg Config, from, to PatternSpec, load float64, warmup, run, drain, bucket int) (TransientResult, error) {
	res, err := Resolved{Config: cfg, Pattern: from, After: to, Warmup: warmup,
		Transient: &Transient{After: to.Name(), Run: run, Drain: drain, Bucket: bucket}}.Run(load, SweepOptions{})
	return *res.Transient, err
}

// burstPoint runs one burst point through Resolved.Run.
func burstPoint(cfg Config, ps PatternSpec, perNode, maxCycles int) (BurstResult, error) {
	res, err := Resolved{Config: cfg, Pattern: ps, Burst: &Burst{PerNode: perNode, MaxCycles: maxCycles}}.Run(0, SweepOptions{})
	return *res.Burst, err
}

func TestRunTransientSeries(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := transientPoint(cfg, Uniform(), Adv(2), 0.14, 2000, 1500, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.From != "UN" || !strings.HasPrefix(res.To, "ADV") {
		t.Errorf("metadata: %+v", res)
	}
	if len(res.Points) < 10 {
		t.Fatalf("too few series points: %d", len(res.Points))
	}
	var pre, post float64
	var nPre, nPost int
	for _, p := range res.Points {
		if p.Cycle < 0 {
			pre += p.MeanLatency
			nPre++
		} else if p.Cycle > 500 {
			post += p.MeanLatency
			nPost++
		}
	}
	if nPre == 0 || nPost == 0 {
		t.Fatal("series does not straddle the switch")
	}
	// ADV traffic at equal load has higher latency than UN (longer paths).
	if post/float64(nPost) < pre/float64(nPre) {
		t.Errorf("post-switch latency %.1f below pre-switch %.1f",
			post/float64(nPost), pre/float64(nPre))
	}
}

func TestRunBurstDrains(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := burstPoint(cfg, paperMixes(2)[0], 20, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("burst not consumed")
	}
	if res.Packets != int64(20*72) {
		t.Errorf("packets=%d", res.Packets)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
}

// steppedBurst is a burst point's reference: the same burst stepped a cycle at a
// time until the first cycle boundary at which the network is drained, or
// maxCycles. It also returns the cycle by which the source had run dry (-1:
// never).
func steppedBurst(t *testing.T, cfg Config, ps PatternSpec, perNode, maxCycles int) (BurstResult, int64) {
	t.Helper()
	cfg.Workers = 1
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pattern := ps.build(n.Topo)
	src := traffic.NewBurst(pattern, perNode, n.Topo.Nodes)
	n.SetGenerator(src)
	dry := int64(-1)
	for i := 0; i < maxCycles && !n.Drained(); i++ {
		n.Step()
		if dry < 0 && src.Done() {
			dry = n.Now()
		}
	}
	return BurstResult{
		Routing: cfg.Routing, Pattern: pattern.Name(), PerNode: perNode,
		Packets: n.Stats.Delivered, Cycles: n.Now(), Drained: n.Drained(),
		RingUse: n.Stats.RingEnters, GlobalMis: n.Stats.GlobalMisroutes, LocalMis: n.Stats.LocalMisroutes,
	}, dry
}

// TestRunBurstMatchesStepped: a burst point runs lookahead windows (on the caller
// and on a 4-worker pool) yet reports what stepping a cycle at a time until
// the drain reports, field for field — the drain cycle as Cycles, not the
// end of the window it fell in. Also when the source runs dry and the network
// drains inside one window, when maxCycles cuts the run short (at a window
// boundary and inside a window), and on a burst drained before it starts.
func TestRunBurstMatchesStepped(t *testing.T) {
	type burstCase struct {
		name               string
		cfg                Config
		ps                 PatternSpec
		perNode, maxCyc    int
		drained, oneWindow bool
	}
	var cases []burstCase
	for _, h := range []int{2, 3} {
		for _, rt := range []Routing{MIN, PB, OFAR} {
			for _, ps := range []PatternSpec{Uniform(), Adv(h)} {
				cases = append(cases, burstCase{name: fmt.Sprintf("h%d/%s/%s", h, rt, ps.Name()),
					cfg: DefaultConfig(h).WithRouting(rt), ps: ps, perNode: 24 / h, maxCyc: 1_000_000, drained: true})
			}
		}
	}
	oneGroup := DefaultConfig(2)
	oneGroup.Groups = 1
	cases = append(cases,
		burstCase{name: "one-window", cfg: oneGroup, ps: Uniform(), perNode: 2, maxCyc: 1_000_000, drained: true, oneWindow: true},
		burstCase{name: "one-packet", cfg: DefaultConfig(2), ps: Uniform(), perNode: 1, maxCyc: 1_000_000, drained: true},
		burstCase{name: "cut-at-window-end", cfg: DefaultConfig(2), ps: Adv(2), perNode: 20, maxCyc: 200},
		burstCase{name: "cut-mid-window", cfg: DefaultConfig(2), ps: Adv(2), perNode: 20, maxCyc: 237},
		burstCase{name: "drained-at-start", cfg: DefaultConfig(2), ps: Uniform(), perNode: 0, maxCyc: 1_000_000, drained: true},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, dry := steppedBurst(t, c.cfg, c.ps, c.perNode, c.maxCyc)
			if want.Drained != c.drained {
				t.Fatalf("stepped reference drained=%v at cycle %d, want %v", want.Drained, want.Cycles, c.drained)
			}
			// Windows are at least GlobalLatency long (the shortest link
			// between groups, or the wheel horizon without one), so both
			// events before it share the first window.
			if c.oneWindow && (dry < 0 || want.Cycles >= int64(c.cfg.GlobalLatency)) {
				t.Fatalf("source dry at %d, drained at %d: not inside the first window", dry, want.Cycles)
			}
			for _, workers := range []int{1, 4} {
				cfg := c.cfg
				cfg.Workers = workers
				got, err := burstPoint(cfg, c.ps, c.perNode, c.maxCyc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("workers=%d:\n got  %+v\n want %+v", workers, got, want)
				}
			}
		})
	}
}

// TestStencilPatternEndToEnd: application workload through the public API.
func TestStencilPatternEndToEnd(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := RunSteady(cfg, Stencil3D(4, 3, 2, false), 0.2, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("stencil delivered nothing")
	}
	rnd, err := RunSteady(cfg, Stencil3D(4, 3, 2, true), 0.2, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Random mapping lengthens paths: hops must rise.
	if rnd.AvgHops <= res.AvgHops {
		t.Errorf("random mapping hops %.2f not above linear %.2f", rnd.AvgHops, res.AvgHops)
	}
}

// TestPermutationPatternEndToEnd: fixed-partner traffic delivers and stays
// conserved.
func TestPermutationPatternEndToEnd(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := RunSteady(cfg, permutation(11), 0.3, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("permutation delivered nothing")
	}
}

// TestRunReplicated: replication is one experiment per seed; three seeds
// give three different rows with a sane mean throughput.
func TestRunReplicated(t *testing.T) {
	var thr stats.Replication
	latencies := map[float64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		r, err := Experiment{H: 2, Seed: &seed, Warmup: 800, Measure: 1500}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(0.2, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		thr.Add(res.Throughput)
		latencies[res.AvgLatency] = true
	}
	if thr.Mean() < 0.17 || thr.Mean() > 0.22 {
		t.Errorf("replicated throughput %.3f", thr.Mean())
	}
	if len(latencies) != 3 {
		t.Errorf("three seeds gave %d distinct latencies", len(latencies))
	}
}

// TestSteadyPercentiles: the histogram-backed percentiles are ordered.
func TestSteadyPercentiles(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := RunSteady(cfg, Uniform(), 0.3, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50Latency <= res.P99Latency) {
		t.Errorf("p50 %.1f > p99 %.1f", res.P50Latency, res.P99Latency)
	}
	if res.P99Latency > float64(res.MaxLatency)+1 {
		t.Errorf("p99 %.1f above max %d", res.P99Latency, res.MaxLatency)
	}
	if res.P50Latency < 100 {
		t.Errorf("p50 %.1f below the physical minimum", res.P50Latency)
	}
}
