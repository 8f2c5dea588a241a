package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"ofar"
	"ofar/internal/network"
)

// rootSpan is the index of the workload's root span in a traced run.
const rootSpan = 0

// setups is how often a workload sets up in one run; setup_s is the median.
const setups = 3

// h6Spec sizes one of the three paper-scale simulation workloads. A run warms
// the network up (set-up), snapshots the warm state, and then replays the
// same measured window of batches×batchCycles cycles from that snapshot until
// the measuring time is used up. Every replicate therefore simulates
// identical content: the simulated statistics repeat exactly, and batch times
// from different replicates are comparable. (Stepping on instead would not
// be: at saturation the host cost of a cycle grows as the network fills, so a
// faster simulator would be timed on later, slower cycles.)
type h6Spec struct {
	h           int
	pattern     ofar.PatternSpec
	load        float64
	par         bool
	warmup      int
	batches     int
	batchCycles int
	paperThr    float64 // the paper's accepted throughput for this scenario; 0 = none
}

func advSpec(ctx *runCtx, par bool) h6Spec {
	// 0.36 is the paper's Fig. 5b OFAR plateau under ADV+h at h=6.
	sp := h6Spec{h: 6, pattern: ofar.Adv(6), load: 0.5, par: par, warmup: 1000, batches: 30, batchCycles: 20, paperThr: 0.36}
	if ctx.quick {
		sp.h, sp.pattern, sp.warmup, sp.batchCycles, sp.paperThr = 2, ofar.Adv(2), 300, 5, 0
	}
	return sp
}

func runH6AdvSat(ctx *runCtx) (*outcome, error)    { return runH6(ctx, advSpec(ctx, false)) }
func runH6AdvSatPar(ctx *runCtx) (*outcome, error) { return runH6(ctx, advSpec(ctx, true)) }

func runH6UnLow(ctx *runCtx) (*outcome, error) {
	sp := h6Spec{h: 6, pattern: ofar.Uniform(), load: 0.05, warmup: 1500, batches: 40, batchCycles: 500}
	if ctx.quick {
		sp.h, sp.warmup, sp.batchCycles = 2, 300, 25
	}
	return runH6(ctx, sp)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// h6Build constructs a network for cfg with the workload's traffic attached,
// the latency histogram on and grants folded into the digest.
func h6Build(cfg ofar.Config, sp h6Spec) (*network.Network, error) {
	sim, err := ofar.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	sim.SetTraffic(sp.pattern, sp.load)
	n := sim.Network()
	n.Stats.EnableHistogram()
	n.EnableGrantDigest()
	return n, nil
}

// h6Variant builds a network with another execution setting and puts it in
// the warm state (snapshots restore across execution settings).
func h6Variant(cfg ofar.Config, sp h6Spec, snap []byte) (*network.Network, error) {
	n, err := h6Build(cfg, sp)
	if err != nil {
		return nil, err
	}
	if err := n.Restore(bytes.NewReader(snap)); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// simCounters are the lifetime counters whose growth over the measured
// window is a simulated fact.
type simCounters struct {
	globalMis, localMis, ringEnters, generated, grants int64
}

func readCounters(n *network.Network) simCounters {
	_, grants := n.GrantDigest()
	s := n.Stats
	return simCounters{s.GlobalMisroutes, s.LocalMisroutes, s.RingEnters, s.Generated, grants}
}

// h6Facts are the simulated statistics of one measured window; they must not
// move when only the simulator gets faster.
func h6Facts(n *network.Network, base simCounters) map[string]string {
	s, now := n.Stats, readCounters(n)
	digest, _ := n.GrantDigest()
	return map[string]string{
		"throughput":       ftoa(s.Throughput(n.Now())),
		"latency_avg":      ftoa(s.AvgLatency()),
		"latency_p50":      ftoa(s.LatencyQuantile(0.50)),
		"latency_p99":      ftoa(s.LatencyQuantile(0.99)),
		"latency_max":      fmt.Sprint(s.MaxLatency()),
		"avg_hops":         ftoa(s.AvgHops()),
		"delivered":        fmt.Sprint(s.MeasuredPackets()),
		"generated":        fmt.Sprint(now.generated - base.generated),
		"global_misroutes": fmt.Sprint(now.globalMis - base.globalMis),
		"local_misroutes":  fmt.Sprint(now.localMis - base.localMis),
		"ring_enters":      fmt.Sprint(now.ringEnters - base.ringEnters),
		"grants":           fmt.Sprint(now.grants - base.grants),
		"grant_digest":     fmt.Sprintf("%016x", digest),
		"end_cycle":        fmt.Sprint(n.Now()),
	}
}

func factFloat(facts map[string]string, key string) float64 {
	v, err := strconv.ParseFloat(facts[key], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// diffFacts describes up to three differences between two fact sets; it is
// empty when they are equal.
func diffFacts(got, want map[string]string) string {
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			diffs = append(diffs, fmt.Sprintf("%s: got %q want %q", k, got[k], w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: unexpected", k))
		}
	}
	slices.Sort(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("and %d more", len(diffs)-3))
	}
	return strings.Join(diffs, "; ")
}

// h6Samples is what one run of an h6 workload measures.
type h6Samples struct {
	rates, ratesTraced    []float64   // simulated cycles per host second, one per batch
	repBatchSec           [][]float64 // untraced replicates: seconds of each batch
	constructMS           []float64
	restoreMS, activeFrac []float64
	nsPerGrant            []float64
	phases                network.PhaseNanos
	batchDigest           []uint64 // replicate 0: the grant digest after each batch
	snapshotMS            float64
	allocsPerCycle        float64
	bytesPerCycle         float64
}

// firstK is the median over untraced replicates of the time of the first k
// batches: the baseline a variant restored to the same state is held to.
func (m *h6Samples) firstK(k int) float64 {
	var sums []float64
	for _, bs := range m.repBatchSec {
		t := 0.0
		for _, s := range bs[:k] {
			t += s
		}
		sums = append(sums, t)
	}
	return median(sums)
}

// h6SetUp constructs the network, attaches the traffic and warms it up, three
// times over; it records setup_s and returns the last network.
func h6SetUp(ctx *runCtx, o *outcome, cfg ofar.Config, sp h6Spec, m *h6Samples) (*network.Network, error) {
	tr := ctx.tr
	var (
		net        *network.Network
		setupS     []float64
		warmDigest uint64
	)
	for i := 0; i < setups; i++ {
		if net != nil {
			net.Close()
			net = nil
			runtime.GC() // outside the timing: drop the previous set-up's network
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
			ofar.EngineDigest()
		}
		op := tr.newOp()
		ss := tr.begin(op, rootSpan, "bench", "setup")
		cs := tr.begin(op, ss, "network", "construct")
		tc := time.Now()
		n, err := h6Build(cfg, sp)
		if err != nil {
			return nil, err
		}
		m.constructMS = append(m.constructMS, ms(time.Since(tc)))
		tr.end(cs, 1)
		ws := tr.begin(op, ss, "network", "warmup")
		n.Run(sp.warmup)
		tr.end(ws, int64(sp.warmup))
		tr.end(ss, 1)
		setupS = append(setupS, time.Since(t0).Seconds())
		d, _ := n.GrantDigest()
		if i == 0 {
			warmDigest = d
		}
		o.check(fmt.Sprintf("set-up %d reaches the same warm state", i), d == warmDigest, "grant digest %016x, first set-up %016x", d, warmDigest)
		net = n
	}
	o.e2e["setup_s"] = median(setupS)
	o.note("setup_s: %s", describe(setupS, "s"))
	return net, nil
}

func runH6(ctx *runCtx, sp h6Spec) (*outcome, error) {
	o, tr := newOutcome(), ctx.tr
	cfg := ofar.DefaultConfig(sp.h)
	cfg.Seed = ctx.seed
	if sp.par {
		// At least 2 workers, so the sharded path runs even where it cannot win.
		cfg.Workers, cfg.ShardByGroup = max(2, min(4, runtime.GOMAXPROCS(0))), true
		if runtime.GOMAXPROCS(0) < 2 {
			o.note("DEGENERATE: GOMAXPROCS=1, the parallel cutover pins this network serial; ops_per_s is not a parallel result")
		}
	}
	m := &h6Samples{batchDigest: make([]uint64, sp.batches)}
	net, err := h6SetUp(ctx, o, cfg, sp, m)
	if err != nil {
		return nil, err
	}
	defer net.Close()

	var snapBuf bytes.Buffer
	ts := time.Now()
	if err := net.Snapshot(&snapBuf); err != nil {
		return nil, err
	}
	m.snapshotMS = ms(time.Since(ts))
	snap := snapBuf.Bytes()

	// In a traced run every other replicate runs on a second network with the
	// per-phase Step timings on; the difference is the tracing overhead.
	var timed *network.Network
	if ctx.traced() {
		if timed, err = h6Variant(cfg, sp, snap); err != nil {
			return nil, err
		}
		defer timed.Close()
		timed.EnablePhaseTimings()
	}

	var (
		window      = sp.batches * sp.batchCycles
		facts       map[string]string
		repMismatch string
		minReps     = 1
	)
	if ctx.traced() {
		minReps = 2
	}
	measureStart := time.Now()
	for rep := 0; rep < minReps || !ctx.expired(measureStart); rep++ {
		n, tracedRep := net, ctx.traced() && rep%2 == 1
		if tracedRep {
			n = timed
		}
		op := tr.newOp()
		rs := tr.begin(op, rootSpan, "bench", "replicate")
		xs := tr.begin(op, rs, "network", "restore")
		t := time.Now()
		if err := n.Restore(bytes.NewReader(snap)); err != nil {
			return nil, err
		}
		m.restoreMS = append(m.restoreMS, ms(time.Since(t)))
		tr.end(xs, 1)
		n.Stats.StartMeasurement(n.Now())
		base := readCounters(n)
		var m0, m1 runtime.MemStats
		if ctx.traced() && rep == 0 {
			runtime.ReadMemStats(&m0)
		}
		var batchSec []float64
		for b := 0; b < sp.batches; b++ {
			ph0 := n.PhaseTimings()
			bs := tr.begin(op, rs, "network", "batch")
			t := time.Now()
			n.Run(sp.batchCycles)
			dt := time.Since(t)
			tr.end(bs, int64(sp.batchCycles))
			o.attempted++
			if err := n.CheckConservation(); err != nil {
				o.failed++
				o.note("replicate %d batch %d: %v", rep, b, err)
			}
			rate := float64(sp.batchCycles) / dt.Seconds()
			if tracedRep {
				m.ratesTraced = append(m.ratesTraced, rate)
				ph, at := n.PhaseTimings(), tr.since(t)
				for _, p := range []struct {
					name string
					ns   int64
				}{{"phase.events", ph.Events - ph0.Events}, {"phase.generate", ph.Generate - ph0.Generate},
					{"phase.pb", ph.PB - ph0.PB}, {"phase.routers", ph.Routers - ph0.Routers}} {
					tr.add(op, bs, "network", p.name, at, p.ns, int64(sp.batchCycles))
					at += p.ns
				}
				m.activeFrac = append(m.activeFrac, float64(n.ActiveRouters())/float64(len(n.Routers)))
			} else {
				m.rates = append(m.rates, rate)
				batchSec = append(batchSec, dt.Seconds())
			}
			if rep == 0 {
				m.batchDigest[b], _ = n.GrantDigest()
			}
		}
		if ctx.traced() && rep == 0 {
			runtime.ReadMemStats(&m1)
			m.allocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(window)
			m.bytesPerCycle = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(window)
		}
		if tracedRep {
			m.phases = n.PhaseTimings()
		} else {
			m.repBatchSec = append(m.repBatchSec, batchSec)
			total := 0.0
			for _, s := range batchSec {
				total += s
			}
			m.nsPerGrant = append(m.nsPerGrant, total*1e9/float64(readCounters(n).grants-base.grants))
		}
		f := h6Facts(n, base)
		if rep == 0 {
			facts = f
		} else if d := diffFacts(f, facts); d != "" && repMismatch == "" {
			repMismatch = fmt.Sprintf("replicate %d: %s", rep, d)
		}
		tr.end(rs, int64(window))
	}
	o.check("every replicate repeats the simulated statistics", repMismatch == "", "%s", repMismatch)
	o.facts = facts
	o.e2e["ops_per_s"] = percentile(m.rates, fastSide)
	o.e2e["sim_throughput"] = factFloat(facts, "throughput")
	o.e2e["sim_latency_avg"] = factFloat(facts, "latency_avg")
	o.note("ops_per_s: simulated cycles per host second, p%d over batches of %d cycles, window of %d cycles replayed %d times: %s",
		fastSide, sp.batchCycles, window, len(m.repBatchSec)+len(m.ratesTraced)/sp.batches, describe(m.rates, "cycles/s"))

	// variant runs the first k batches on a network with another execution
	// setting, checks it reproduces replicate 0's grants, and returns how much
	// longer it took than the workload's own network.
	variant := func(name string, vcfg ofar.Config, k int) (float64, error) {
		op := tr.newOp()
		vs := tr.begin(op, rootSpan, "network", "variant."+name)
		defer tr.end(vs, int64(k*sp.batchCycles))
		v, err := h6Variant(vcfg, sp, snap)
		if err != nil {
			return 0, err
		}
		defer v.Close()
		v.Stats.StartMeasurement(v.Now())
		t := time.Now()
		v.Run(k * sp.batchCycles)
		sec := time.Since(t).Seconds()
		d, _ := v.GrantDigest()
		o.check(name+" reproduces the grant digest", d == m.batchDigest[k-1] && v.CheckConservation() == nil,
			"after %d cycles: %016x, want %016x", k*sp.batchCycles, d, m.batchDigest[k-1])
		return sec / m.firstK(k), nil
	}

	if sp.par {
		// The sharded path must agree with the serial engine grant for grant.
		k := min(5, sp.batches)
		if ctx.traced() {
			k = sp.batches
		}
		scfg := cfg
		scfg.Workers, scfg.ShardByGroup = 1, false
		speedup, err := variant("serial", scfg, k)
		if err != nil {
			return nil, err
		}
		o.layer["network.par_speedup"] = speedup
		o.layer["network.par_efficiency"] = speedup / float64(min(cfg.Workers, runtime.GOMAXPROCS(0)))
	}
	if !ctx.traced() {
		return o, nil
	}

	k := min(10, sp.batches)
	for _, v := range []struct {
		metric, name string
		set          func(*ofar.Config)
	}{
		{"network.sched_gain", "nosched", func(c *ofar.Config) { c.DisableActivitySched = true }},
		{"router.cache_gain", "nocache", func(c *ofar.Config) { c.DisableRouteCache = true }},
	} {
		vcfg := cfg
		v.set(&vcfg)
		if o.layer[v.metric], err = variant(v.name, vcfg, k); err != nil {
			return nil, err
		}
	}
	if err := h6RouterProbe(ctx, o, net, snap); err != nil {
		return nil, err
	}
	h6Layers(o, sp, m, facts, len(snap))
	runProbes(ctx, o)
	return o, nil
}

// h6Layers turns a traced run's samples into the per-layer metrics.
func h6Layers(o *outcome, sp h6Spec, m *h6Samples, facts map[string]string, snapBytes int) {
	var stepUS []float64
	for _, r := range m.rates {
		stepUS = append(stepUS, 1e6/r)
	}
	l := o.layer
	l["trace.overhead_pct"] = 100 * (1 - median(m.ratesTraced)/median(m.rates))
	l["network.new_ms"] = median(m.constructMS)
	l["network.step_us_p50"] = median(stepUS)
	l["network.step_us_p95"] = percentile(stepUS, 95)
	setPhases(l, m.phases)
	l["network.active_frac"] = mean(m.activeFrac)
	l["network.host_ns_per_grant"] = median(m.nsPerGrant)
	l["network.allocs_per_cycle"] = m.allocsPerCycle
	l["network.bytes_per_cycle"] = m.bytesPerCycle
	l["network.snapshot_ms"] = m.snapshotMS
	l["network.snapshot_kb"] = float64(snapBytes) / 1024
	l["network.restore_ms"] = median(m.restoreMS)
	delivered := factFloat(facts, "delivered")
	l["core.global_misroutes_per_kpkt"] = 1000 * factFloat(facts, "global_misroutes") / delivered
	l["core.local_misroutes_per_kpkt"] = 1000 * factFloat(facts, "local_misroutes") / delivered
	l["core.escape_frac"] = factFloat(facts, "ring_enters") / delivered
	l["stats.sim_latency_p99"] = factFloat(facts, "latency_p99")
	if sp.paperThr > 0 {
		l["core.paper_err_pct"] = 100 * math.Abs(factFloat(facts, "throughput")-sp.paperThr) / sp.paperThr
	}
	o.note("network.step_us: %s", describe(stepUS, "us"))
	o.note("network.restore_ms: %s", describe(m.restoreMS, "ms"))
}

// setPhases fills the per-phase Step metrics from an accumulated breakdown.
func setPhases(l map[string]float64, ph network.PhaseNanos) {
	if ph.Cycles == 0 {
		return
	}
	perCycle := func(ns int64) float64 { return float64(ns) / 1e3 / float64(ph.Cycles) }
	total := float64(ph.Faults + ph.Events + ph.Generate + ph.PB + ph.Routers)
	l["network.phase.events_us"] = perCycle(ph.Events)
	l["network.phase.generate_us"] = perCycle(ph.Generate)
	l["network.phase.pb_us"] = perCycle(ph.PB)
	l["network.phase.routers_us"] = perCycle(ph.Routers)
	l["network.phase.events_share"] = float64(ph.Events) / total
	l["network.phase.generate_share"] = float64(ph.Generate) / total
	l["network.phase.routers_share"] = float64(ph.Routers) / total
}

// h6RouterProbe times Fork and then one Router.Cycle call on every router of
// the throw-away fork, in the warm state: the router stage without the
// network around it.
func h6RouterProbe(ctx *runCtx, o *outcome, net *network.Network, snap []byte) error {
	tr := ctx.tr
	if err := net.Restore(bytes.NewReader(snap)); err != nil {
		return err
	}
	op := tr.newOp()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fs := tr.begin(op, rootSpan, "network", "fork")
	t := time.Now()
	f, err := net.Fork()
	if err != nil {
		return err
	}
	forkMS := ms(time.Since(t))
	tr.end(fs, 1)
	runtime.ReadMemStats(&m1)
	defer f.Close()
	routable := 0
	for _, r := range f.Routers {
		routable += r.RoutableVCs()
	}
	cs := tr.begin(op, rootSpan, "router", "cycle")
	grants, now := 0, f.Now()
	t = time.Now()
	for _, r := range f.Routers {
		grants += len(r.Cycle(f.Engine, now))
	}
	cycleNS := float64(time.Since(t).Nanoseconds()) / float64(len(f.Routers))
	tr.end(cs, int64(len(f.Routers)))
	o.layer["network.fork_ms"] = forkMS
	o.layer["network.fork_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	o.layer["router.cycle_ns"] = cycleNS
	o.layer["router.grants_per_cycle"] = float64(grants)
	o.layer["router.routable_vcs"] = float64(routable)
	return nil
}
