// Command sweep runs a load sweep for one routing mechanism and traffic
// pattern and emits CSV, for plotting latency/throughput curves.
//
// Example:
//
//	sweep -h 3 -routing OFAR -pattern ADV+3 -from 0.05 -to 0.6 -points 12 > ofar_adv3.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ofar"
)

func main() {
	var (
		h       = flag.Int("h", 3, "dragonfly parameter h")
		routing = flag.String("routing", "OFAR", "routing mechanism: MIN, VAL, PB, UGAL-L, PAR, OFAR, OFAR-L")
		pattern = flag.String("pattern", "UN", "traffic pattern: UN, ADV+<n>, MIX1..3")
		from    = flag.Float64("from", 0.05, "first load point")
		to      = flag.Float64("to", 1.0, "last load point")
		points  = flag.Int("points", 10, "number of load points")
		warmup  = flag.Int("warmup", 3000, "warm-up cycles")
		measure = flag.Int("measure", 5000, "measurement cycles")
		seed    = flag.Uint64("seed", 1, "random seed")
		seeds   = flag.Int("seeds", 1, "replicate each point across this many seeds (mean±sd output)")
		workers = flag.Int("workers", 0, "pool workers per network, stealing whole dragonfly groups (0/1 = no pool; bit-identical results)")
		faults  = flag.String("faults", "", "fault schedule: a JSON file of Fault objects, or inline like link@5000:12:7")
		ckpt    = flag.String("checkpoint", "", "directory to write per-point warm snapshots into (reuse with -restore; single-seed sweeps)")
		restore = flag.String("restore", "", "directory of warm snapshots: points found there skip warmup, bit-identically (stale entries re-warm)")
		jobs    = flag.String("jobs", "", "job-level workload instead of -pattern: kind:size@load[,...]; the load axis becomes a scale factor on every job")
		jobMap  = flag.String("jobmap", "linear", "job placement: linear or random")
		bg      = flag.Float64("bg", 0, "uniform background load on nodes no job occupies")
	)
	flag.Parse()

	base := ofar.DefaultConfig(*h)
	base.Seed = *seed
	base.Workers = *workers
	if *faults != "" {
		fs, err := ofar.LoadFaults(*faults)
		check(err)
		base.Faults = fs
	}
	loads := make([]float64, *points)
	for i := range loads {
		if *points == 1 {
			loads[i] = *from
		} else {
			loads[i] = *from + (*to-*from)*float64(i)/float64(*points-1)
		}
	}
	// The routing conventions, validation and pattern|jobs parsing are the
	// resolver's; the windows stay flags so an explicit 0 means 0 cycles.
	exp := ofar.Experiment{Config: &base, Routing: *routing, Loads: loads,
		Jobs: *jobs, JobMap: *jobMap, Background: *bg}
	if *jobs == "" {
		exp.Pattern = *pattern
	}
	r, err := exp.Resolve()
	check(err)
	cfg, ps := r.Config, r.Pattern
	// Job-level sweep: the load axis scales every job's load, and the CSV
	// carries one row per (scale, job) so per-job curves plot directly.
	if r.Jobs != nil {
		if *seeds > 1 || *ckpt != "" || *restore != "" {
			fmt.Fprintln(os.Stderr, "sweep: -seeds/-checkpoint/-restore apply to pattern sweeps; ignoring")
		}
		fmt.Println("routing,job,nodes,scale,avg_latency,p50,p99,throughput,delivered,dropped")
		for _, scale := range r.Loads {
			jr, err := ofar.RunJobs(cfg, *r.Jobs, scale, *warmup, *measure)
			check(err)
			for _, j := range jr.Jobs {
				fmt.Printf("%s,%s,%d,%.4f,%.2f,%.1f,%.1f,%.5f,%d,%d\n",
					jr.Agg.Routing, j.Job, j.Nodes, scale, j.AvgLatency,
					j.P50Latency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		}
		return
	}
	if *seeds > 1 {
		if *ckpt != "" || *restore != "" {
			fmt.Fprintln(os.Stderr, "sweep: -checkpoint/-restore apply to single-seed sweeps; ignoring")
		}
		fmt.Println("routing,pattern,load,runs,lat_mean,lat_sd,thr_mean,thr_sd,escape_mean")
		for _, load := range r.Loads {
			rep, err := ofar.RunReplicated(cfg, ps, load, *warmup, *measure, *seeds)
			check(err)
			fmt.Printf("%s,%s,%.4f,%d,%.2f,%.2f,%.5f,%.5f,%.5f\n",
				cfg.Routing, ps.Name(), load, rep.Runs,
				rep.AvgLatency.Mean, rep.AvgLatency.StdDev,
				rep.Throughput.Mean, rep.Throughput.StdDev,
				rep.EscapeFraction.Mean)
		}
		return
	}
	opt := ofar.SweepOptions{CheckpointDir: *ckpt, RestoreDir: *restore}
	restored := 0
	fmt.Println("routing,pattern,load,avg_latency,net_latency,p50,p99,throughput,avg_hops,global_mis,local_mis,ring_enters,delivered,dropped,fault_reroutes")
	for _, load := range r.Loads {
		// One point per call keeps the CSV streaming.
		row, hit, err := ofar.RunSweepPoint(cfg, ps, load, *warmup, *measure, opt)
		check(err)
		if hit {
			restored++
		}
		fmt.Printf("%s,%s,%.4f,%.2f,%.2f,%.1f,%.1f,%.5f,%.3f,%d,%d,%d,%d,%d,%d\n",
			row.Routing, row.Pattern, row.Load, row.AvgLatency, row.AvgNetLatency,
			row.P50Latency, row.P99Latency,
			row.Throughput, row.AvgHops, row.GlobalMisroutes, row.LocalMisroutes,
			row.RingEnters, row.Delivered, row.Dropped, row.FaultReroutes)
	}
	if *ckpt != "" || *restore != "" {
		warmed := len(r.Loads) - restored
		fmt.Fprintf(os.Stderr, "sweep: warm cache: %d point(s) restored (%d warmup cycles skipped), %d warmed (%d cycles)\n",
			restored, restored**warmup, warmed, warmed**warmup)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}
