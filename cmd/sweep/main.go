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
	"strings"

	"ofar"
)

func main() {
	var (
		h       = flag.Int("h", 3, "dragonfly parameter h")
		routing = flag.String("routing", "OFAR", "routing mechanism")
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

	cfg := ofar.DefaultConfig(*h)
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *faults != "" {
		fs, err := ofar.LoadFaults(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		cfg.Faults = fs
	}
	cfg.Routing = ofar.Routing(strings.ToUpper(*routing))
	if cfg.Routing == ofar.PAR {
		cfg.LocalVCs, cfg.InjVCs = 4, 4
	}
	if cfg.Routing == ofar.MIN || cfg.Routing == ofar.VAL ||
		cfg.Routing == ofar.PB || cfg.Routing == ofar.UGAL ||
		cfg.Routing == ofar.PAR {
		cfg.Ring = ofar.RingNone
	}
	ps, err := ofar.ParsePattern(*pattern, *h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	loads := make([]float64, *points)
	for i := range loads {
		if *points == 1 {
			loads[i] = *from
		} else {
			loads[i] = *from + (*to-*from)*float64(i)/float64(*points-1)
		}
	}
	// Job-level sweep: the load axis scales every job's load, and the CSV
	// carries one row per (scale, job) so per-job curves plot directly.
	if *jobs != "" {
		w, err := ofar.ParseWorkload(*jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		switch strings.ToLower(*jobMap) {
		case "linear":
		case "random":
			w.RandomMap = true
		default:
			fmt.Fprintf(os.Stderr, "sweep: unknown job mapping %q\n", *jobMap)
			os.Exit(1)
		}
		w.Background = *bg
		if *seeds > 1 || *ckpt != "" || *restore != "" {
			fmt.Fprintln(os.Stderr, "sweep: -seeds/-checkpoint/-restore apply to pattern sweeps; ignoring")
		}
		fmt.Println("routing,job,nodes,scale,avg_latency,p50,p99,throughput,delivered,dropped")
		for _, scale := range loads {
			jr, err := ofar.RunJobs(cfg, w, scale, *warmup, *measure)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				os.Exit(1)
			}
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
		for _, load := range loads {
			rep, err := ofar.RunReplicated(cfg, ps, load, *warmup, *measure, *seeds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s,%s,%.4f,%d,%.2f,%.2f,%.5f,%.5f,%.5f\n",
				cfg.Routing, ps.Name(), load, rep.Runs,
				rep.AvgLatency.Mean, rep.AvgLatency.StdDev,
				rep.Throughput.Mean, rep.Throughput.StdDev,
				rep.EscapeFraction.Mean)
		}
		return
	}
	opt := ofar.SweepOptions{Parallel: 1, CheckpointDir: *ckpt, RestoreDir: *restore}
	var total ofar.SweepStats
	fmt.Println("routing,pattern,load,avg_latency,net_latency,p50,p99,throughput,avg_hops,global_mis,local_mis,ring_enters,delivered,dropped,fault_reroutes")
	for _, load := range loads {
		// One point per call keeps the CSV streaming while every point
		// still goes through the warm-fork path and the warm cache.
		rs, st, err := ofar.RunLoadSweepOpt(cfg, ps, []float64{load}, *warmup, *measure, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		total.Warmed += st.Warmed
		total.Restored += st.Restored
		total.WarmupCyclesRun += st.WarmupCyclesRun
		total.WarmupCyclesSkipped += st.WarmupCyclesSkipped
		r := rs[0]
		fmt.Printf("%s,%s,%.4f,%.2f,%.2f,%.1f,%.1f,%.5f,%.3f,%d,%d,%d,%d,%d,%d\n",
			r.Routing, r.Pattern, r.Load, r.AvgLatency, r.AvgNetLatency,
			r.P50Latency, r.P99Latency,
			r.Throughput, r.AvgHops, r.GlobalMisroutes, r.LocalMisroutes,
			r.RingEnters, r.Delivered, r.Dropped, r.FaultReroutes)
	}
	if *ckpt != "" || *restore != "" {
		fmt.Fprintf(os.Stderr, "sweep: warm cache: %d point(s) restored (%d warmup cycles skipped), %d warmed (%d cycles)\n",
			total.Restored, total.WarmupCyclesSkipped, total.Warmed, total.WarmupCyclesRun)
	}
}
