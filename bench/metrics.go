package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one metric of the benchmark. The tables below are the
// single source of truth: BENCHMARK.json is generated from them (-manifest)
// and bench_test.go checks the committed file against them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) (*outcome, error)
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// fastSide is the percentile of per-batch rates that ops_per_s reports: the
// rate the fastest tenth of the batches reached. Interference from other
// tenants of a shared host only ever slows a batch down, so the fast side of
// the sample repeats far better than its median (measured here: run-to-run
// spread 2-4% against 5-8%, and 9-15% against 12-23% on the two-worker
// workload). p90 is also the highest percentile that still has ten samples
// beyond it at the ~150 batches a run takes. The median is printed beside it.
const fastSide = 90

var workloads = []workloadDef{
	{"h6-adv-sat", "Paper's headline (Fig. 5): h=6 OFAR under ADV+6 above saturation; all 876 routers awake, the router stage is ~80% of a step; an op is one simulated cycle", runH6AdvSat},
	{"h6-adv-sat-par", "Same inputs on the group-sharded parallel path (workers=min(4,GOMAXPROCS)); a serial-path gain that costs the sharded path shows here; an op is one simulated cycle", runH6AdvSatPar},
	{"h6-un-low", "Left half of every latency curve: h=6 uniform at load 0.05, ~16% of routers awake, so generate and the event wheel dominate, not the router stage; an op is one simulated cycle", runH6UnLow},
	{"sweep-h3", "What sweep/experiments do: 64 short h=3 points over MIN/VAL/PB/OFAR x UN/ADV+3, cold then restored from the warm-snapshot cache, so per-point fixed costs show; an op is one sweep point", runSweepH3},
	{"sweepd-mix", "The service layer: cold fill and coalescing are set-up, then a closed loop of 2 clients over 20 cached request bodies, then a disk-backed phase; an op is one cached HTTP request", runSweepdMix},
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them; what an operation is differs per workload (see workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_throughput", "phits/node/cycle", "higher", 0.05},
	{"sim_latency_avg", "cycles", "lower", 0.10},
}

// perLayer lists the traced run's metrics. A metric reads 0 on a workload
// that does not exercise its layer.
var perLayer = []metricDef{
	{"host.gomaxprocs", "count", "higher", 0},
	{"host.numcpu", "count", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	{"network.new_ms", "ms", "lower", 0},
	{"network.step_us_p50", "us", "lower", 0},
	{"network.step_us_p95", "us", "lower", 0},
	{"network.phase.events_us", "us", "lower", 0},
	{"network.phase.generate_us", "us", "lower", 0},
	{"network.phase.pb_us", "us", "lower", 0},
	{"network.phase.routers_us", "us", "lower", 0},
	{"network.phase.events_share", "ratio", "lower", 0},
	{"network.phase.generate_share", "ratio", "lower", 0},
	{"network.phase.routers_share", "ratio", "lower", 0},
	{"network.active_frac", "ratio", "lower", 0},
	{"network.host_ns_per_grant", "ns", "lower", 0},
	{"network.allocs_per_cycle", "count", "lower", 0},
	{"network.bytes_per_cycle", "B", "lower", 0},
	{"network.sched_gain", "ratio", "higher", 0},
	{"network.par_speedup", "ratio", "higher", 0},
	{"network.par_efficiency", "ratio", "higher", 0},
	{"network.snapshot_ms", "ms", "lower", 0},
	{"network.snapshot_kb", "KB", "lower", 0},
	{"network.restore_ms", "ms", "lower", 0},
	{"network.fork_ms", "ms", "lower", 0},
	{"network.fork_mb", "MB", "lower", 0},

	{"router.cache_gain", "ratio", "higher", 0},
	{"router.cycle_ns", "ns", "lower", 0},
	{"router.grants_per_cycle", "count", "higher", 0},
	{"router.routable_vcs", "count", "lower", 0},

	{"core.ofar.point_ms", "ms", "lower", 0},
	{"routing.min.point_ms", "ms", "lower", 0},
	{"routing.val.point_ms", "ms", "lower", 0},
	{"routing.pb.point_ms", "ms", "lower", 0},
	{"core.global_misroutes_per_kpkt", "count", "lower", 0},
	{"core.local_misroutes_per_kpkt", "count", "lower", 0},
	{"core.escape_frac", "ratio", "lower", 0},
	{"core.paper_err_pct", "%", "lower", 0},

	{"simcore.wheel.schedule_ns", "ns", "lower", 0},
	{"simcore.wheel.advance_ns_per_ev", "ns", "lower", 0},
	{"simcore.rng.bernoulli_ns", "ns", "lower", 0},
	{"simcore.codec.enc_mb_s", "MB/s", "higher", 0},
	{"simcore.codec.dec_mb_s", "MB/s", "higher", 0},

	{"traffic.bernoulli_un.next_ns", "ns", "lower", 0},
	{"traffic.bernoulli_adv.next_ns", "ns", "lower", 0},
	{"traffic.jobset.next_ns", "ns", "lower", 0},
	{"traffic.burst.next_ns", "ns", "lower", 0},
	{"traffic.replay.next_ns", "ns", "lower", 0},

	{"topology.new_h6_ms", "ms", "lower", 0},
	{"topology.minimal_port_ns", "ns", "lower", 0},

	{"packet.pool.getput_ns", "ns", "lower", 0},
	{"stats.ondeliver_ns", "ns", "lower", 0},
	{"stats.quantile_us", "us", "lower", 0},
	{"stats.sim_latency_p99", "cycles", "lower", 0},

	{"ofar.engine_digest_ms", "ms", "lower", 0},
	{"ofar.warm_ms_p50", "ms", "lower", 0},
	{"ofar.snapshot_ms_p50", "ms", "lower", 0},
	{"ofar.restore_ms_p50", "ms", "lower", 0},
	{"ofar.measure_ms_p50", "ms", "lower", 0},
	{"ofar.fixed_share", "ratio", "lower", 0},
	{"ofar.cold_points_per_s", "1/s", "higher", 0},
	{"ofar.warm_points_per_s", "1/s", "higher", 0},
	{"ofar.warm_speedup", "ratio", "higher", 0},
	{"ofar.sweep_parallelism", "ratio", "higher", 0},

	{"service.cold.req_ms_p50", "ms", "lower", 0},
	{"service.cold.points_per_s", "1/s", "higher", 0},
	{"service.cached.req_ms_p50", "ms", "lower", 0},
	{"service.cached.req_ms_p99", "ms", "lower", 0},
	{"service.cached.server_us_p50", "us", "lower", 0},
	{"service.cached.http_overhead_us", "us", "lower", 0},
	{"service.disk.req_ms_p50", "ms", "lower", 0},
	{"service.computed_points", "count", "lower", 0},
	{"service.coalesced_points", "count", "higher", 0},
	{"service.cache_hits", "count", "higher", 0},
	{"service.shed", "count", "lower", 0},
	{"service.point_cost_ms", "ms", "lower", 0},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// percentile is the nearest-rank percentile (p in (0,100]) of unsorted xs;
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest percentile that still has at least
// ten samples beyond it, or 0 when even p75 does not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)-p/100*float64(n) >= 10-1e-9 { // samples beyond the percentile
			best = p
		}
	}
	return best
}

// describe renders a timing sample the way every timing is printed: median,
// the highest supported tail percentile, and the sample count.
func describe(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("median %.4g %s", median(xs), unit)
	if p := highestPercentile(len(xs)); p > 0 {
		s += fmt.Sprintf(", p%g %.4g %s", p, percentile(xs, p), unit)
	}
	return s + fmt.Sprintf(", n=%d", len(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
