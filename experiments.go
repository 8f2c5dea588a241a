package ofar

import (
	"errors"
	"math"
	"runtime"
	"sync"

	"ofar/internal/network"
	"ofar/internal/traffic"
)

// SteadyResult summarizes one steady-state measurement (one point of the
// paper's latency/throughput-vs-load plots, Figs. 3–5 and 8–9).
type SteadyResult struct {
	Routing Routing
	Pattern string
	Load    float64 // offered, phits/(node·cycle)

	AvgLatency    float64 // generation → delivery, cycles
	AvgNetLatency float64 // injection → delivery, cycles
	P50Latency    float64 // median latency (histogram estimate)
	P99Latency    float64 // 99th-percentile latency (histogram estimate)
	MaxLatency    int64
	AvgHops       float64
	Throughput    float64 // accepted, phits/(node·cycle)

	Delivered       int64
	GlobalMisroutes int64
	LocalMisroutes  int64
	RingEnters      int64
	RingExits       int64

	// Fault-injection outcomes (zero without a Config.Faults schedule).
	Dropped       int64
	FaultReroutes int64
	AffectedFlows int

	// EscapeFraction is the share of delivered packets that entered the
	// escape ring — the paper argues it stays tiny (§IV-C, §VII).
	EscapeFraction float64
}

// RunSteady simulates an open-loop Bernoulli workload: warmup cycles to
// reach steady state, then measure cycles of measurement, and returns the
// averages (paper §VI-A methodology). It is Resolved.Run without options.
func RunSteady(cfg Config, ps PatternSpec, load float64, warmup, measure int) (SteadyResult, error) {
	res, err := Resolved{Config: cfg, Pattern: ps, Warmup: warmup, Measure: measure}.Run(load, SweepOptions{})
	return res.SteadyResult, err
}

// measureSteady runs the measurement window on an already-warm network and
// collects the steady-state result. It is the shared tail of every point and
// of WarmState.Measure, which is what keeps a measurement off a fork
// field-for-field identical to an uninterrupted run.
func measureSteady(n *network.Network, pattern string, load float64, measure int) (SteadyResult, error) {
	base := n.Stats
	ringEnters0, gm0, lm0, rx0 := base.RingEnters, base.GlobalMisroutes, base.LocalMisroutes, base.RingExits
	base.StartMeasurement(n.Now())
	n.Run(measure)
	res := SteadyResult{
		Routing:         n.Cfg.Routing,
		Pattern:         pattern,
		Load:            load,
		AvgLatency:      base.AvgLatency(),
		AvgNetLatency:   base.AvgNetworkLatency(),
		P50Latency:      base.LatencyQuantile(0.50),
		P99Latency:      base.LatencyQuantile(0.99),
		MaxLatency:      base.MaxLatency(),
		AvgHops:         base.AvgHops(),
		Throughput:      base.Throughput(n.Now()),
		Delivered:       base.MeasuredPackets(),
		GlobalMisroutes: base.GlobalMisroutes - gm0,
		LocalMisroutes:  base.LocalMisroutes - lm0,
		RingEnters:      base.RingEnters - ringEnters0,
		RingExits:       base.RingExits - rx0,
		Dropped:         base.Dropped,
		FaultReroutes:   base.FaultReroutes,
		AffectedFlows:   base.AffectedFlows(),
	}
	if res.Delivered > 0 {
		res.EscapeFraction = float64(res.RingEnters) / float64(res.Delivered)
	}
	if err := n.CheckConservation(); err != nil {
		return res, err
	}
	return res, nil
}

// SweepOptions tunes one point (Resolved.Run) or every point of a sweep.
type SweepOptions struct {
	// CheckpointDir, when non-empty, receives one warm-state snapshot per
	// point, keyed by (normalized config, pattern, load, warmup).
	CheckpointDir string
	// RestoreDir, when non-empty, is searched for those snapshots first: a
	// hit skips the point's warmup entirely, a miss (or a stale/corrupt
	// entry — e.g. written by a build with different physics) falls back to
	// warming from cycle 0. Point the two at the same directory to get a
	// persistent warm cache across invocations.
	RestoreDir string
	// PhaseSink, when non-nil, turns on per-phase Step timing for each
	// point's measurement window and receives the window's accumulated
	// breakdown once per point. The sink must be safe for concurrent calls
	// (sweeps measure points concurrently). Timing never affects results —
	// only where the wall-clock went (see network.PhaseNanos).
	PhaseSink func(PhaseNanos)
	// Record keeps every generated packet (PointResult.Trace) and the run's
	// grant digest (PointResult.Digest), which ReplayTrace of that trace
	// reproduces. A recording point ignores RestoreDir — its trace must start
	// at cycle 0 — but still writes its checkpoint.
	Record bool
}

// PhaseNanos re-exports the engine's per-phase timing breakdown for
// sweep callers (sweepd's /metrics gauges are the main consumer).
type PhaseNanos = network.PhaseNanos

// SweepStats reports how much warm-up work a sweep actually did — the
// observable benefit of the warm cache.
type SweepStats struct {
	Warmed              int   // points that simulated their warmup phase
	Restored            int   // points resumed from a warm snapshot
	WarmupCyclesRun     int64 // cycles spent warming
	WarmupCyclesSkipped int64 // cycles the cache saved
}

// RunLoadSweepOpt runs one Resolved.Run per load, concurrently. Every point
// builds its own network whose RNG streams derive only from cfg.Seed, so rows
// are bit-identical to per-point RunSteady however each point got its warm
// state. max(1, GOMAXPROCS/cfg.PoolWidth()) networks are in flight: each owns
// a resident pool of that width, all busy once the sweep is saturated.
func RunLoadSweepOpt(cfg Config, ps PatternSpec, loads []float64, warmup, measure int, opt SweepOptions) ([]SteadyResult, SweepStats, error) {
	r := Resolved{Config: cfg, Pattern: ps, Warmup: warmup, Measure: measure}
	points := make([]PointResult, len(loads))
	errs := make([]error, len(loads))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)/cfg.PoolWidth()))
	var wg sync.WaitGroup
	for i, load := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			points[i], errs[i] = r.Run(load, opt)
		}()
	}
	wg.Wait()
	out := make([]SteadyResult, len(loads))
	st := SweepStats{Warmed: len(loads)}
	for i, p := range points {
		out[i] = p.SteadyResult
		if p.Restored {
			st.Restored++
			st.Warmed--
		}
	}
	st.WarmupCyclesSkipped = int64(st.Restored) * int64(warmup)
	st.WarmupCyclesRun = int64(st.Warmed) * int64(warmup)
	return out, st, errors.Join(errs...)
}

// TransientPoint is one bucket of the latency-by-send-cycle series.
type TransientPoint struct {
	Cycle       int64 // bucket start, relative to the pattern switch
	MeanLatency float64
	Count       int64
}

// TransientResult is the §VI-B measurement: average latency of the packets
// *sent* in each cycle bucket, before and after a traffic-pattern switch.
type TransientResult struct {
	Routing  Routing
	From, To string
	Load     float64
	SwitchAt int64 // absolute cycle of the switch
	Points   []TransientPoint
}

// runTransient runs r's Transient section at load: r.Pattern for r.Warmup
// cycles, then After for Run plus Drain cycles, with the send-cycle series on.
func (r Resolved) runTransient(load float64) (TransientResult, error) {
	n, err := network.New(r.Config)
	if err != nil {
		return TransientResult{}, err
	}
	defer n.Close()
	t := r.Transient
	pb := r.Pattern.build(n.Topo)
	pa := r.After.build(n.Topo)
	switchAt := int64(r.Warmup)
	n.SetGenerator(traffic.NewTransient(pb, pa, switchAt, load, r.Config.PacketSize))
	n.Stats.EnableSeries(t.Bucket)
	n.Run(r.Warmup + t.Run + t.Drain)
	series := n.Stats.Series()
	res := TransientResult{
		Routing:  r.Config.Routing,
		From:     pb.Name(),
		To:       pa.Name(),
		Load:     load,
		SwitchAt: switchAt,
	}
	// Report from shortly before the switch through the run window.
	for i := 0; i < series.Len(); i++ {
		cycle, mean, cnt := series.At(i)
		if cycle < switchAt-int64(t.Run)/2 || cycle > switchAt+int64(t.Run) {
			continue
		}
		if cnt == 0 || math.IsNaN(mean) {
			continue
		}
		res.Points = append(res.Points, TransientPoint{Cycle: cycle - switchAt, MeanLatency: mean, Count: cnt})
	}
	return res, nil
}

// BurstResult is one §VI-C burst-consumption measurement.
type BurstResult struct {
	Routing   Routing
	Pattern   string
	PerNode   int
	Packets   int64
	Cycles    int64 // time to consume the whole burst
	Drained   bool  // false when MaxCycles elapsed first
	RingUse   int64 // escape-ring entries during the burst
	GlobalMis int64
	LocalMis  int64
}

// runBurst runs r's Burst section: every node injects PerNode packets as fast
// as the network accepts them, and the row is the time until all are
// delivered.
func (r Resolved) runBurst() (BurstResult, error) {
	n, err := network.New(r.Config)
	if err != nil {
		return BurstResult{}, err
	}
	defer n.Close()
	b := r.Burst
	pattern := r.Pattern.build(n.Topo)
	n.SetGenerator(traffic.NewBurst(pattern, b.PerNode, n.Topo.Nodes))
	cycles, drained := n.RunUntilDrained(b.MaxCycles)
	res := BurstResult{
		Routing:   r.Config.Routing,
		Pattern:   pattern.Name(),
		PerNode:   b.PerNode,
		Packets:   n.Stats.Delivered,
		Cycles:    cycles,
		Drained:   drained,
		RingUse:   n.Stats.RingEnters,
		GlobalMis: n.Stats.GlobalMisroutes,
		LocalMis:  n.Stats.LocalMisroutes,
	}
	if err := n.CheckConservation(); err != nil {
		return res, err
	}
	return res, nil
}
