// Command sweep runs a load sweep for one routing mechanism and traffic
// pattern and emits CSV, for plotting latency/throughput curves.
//
// Example:
//
//	sweep -h 3 -routing OFAR -pattern ADV+3 -from 0.05 -to 0.6 -points 12 > ofar_adv3.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ofar"
	"ofar/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and streams the sweep's CSV to stdout, one row per point
// (per job for job sets) as it completes; notes go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		h       = fs.Int("h", 3, "dragonfly parameter h")
		routing = fs.String("routing", "OFAR", "routing mechanism: MIN, VAL, PB, UGAL-L, PAR, OFAR, OFAR-L")
		pattern = fs.String("pattern", "UN", "traffic pattern: UN, ADV+<n>, MIX1..3")
		from    = fs.Float64("from", 0.05, "first load point")
		to      = fs.Float64("to", 1.0, "last load point")
		points  = fs.Int("points", 10, "number of load points")
		warmup  = fs.Int("warmup", 3000, "warm-up cycles")
		measure = fs.Int("measure", 5000, "measurement cycles")
		seed    = fs.Uint64("seed", 1, "random seed")
		seeds   = fs.Int("seeds", 1, "replicate each point across this many seeds, -seed upward (mean±sd output; pattern sweeps)")
		workers = fs.Int("workers", 0, "pool workers per network, stealing whole dragonfly groups (0/1 = no pool; bit-identical results)")
		faults  = fs.String("faults", "", "fault schedule: a JSON file of Fault objects, or inline like link@5000:12:7")
		ckpt    = fs.String("checkpoint", "", "directory to write per-point warm snapshots into (reuse with -restore)")
		restore = fs.String("restore", "", "directory of warm snapshots: points found there skip warmup, bit-identically (stale entries re-warm)")
		jobs    = fs.String("jobs", "", "job-level workload instead of -pattern: kind:size@load[,...]; the load axis becomes a scale factor on every job")
		jobMap  = fs.String("jobmap", "linear", "job placement: linear or random")
		bg      = fs.Float64("bg", 0, "uniform background load on nodes no job occupies")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := ofar.DefaultConfig(*h)
	base.Seed = *seed
	base.Workers = *workers
	if *faults != "" {
		var err error
		if base.Faults, err = ofar.LoadFaults(*faults); err != nil {
			return err
		}
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
	if err != nil {
		return err
	}
	r.Warmup, r.Measure = *warmup, *measure
	// Replication is one experiment per seed, -seed upward, each point
	// through the warm cache like any other.
	replicate := *seeds > 1 && r.Jobs == nil
	if *seeds > 1 && !replicate {
		fmt.Fprintln(stderr, "sweep: -seeds applies to pattern sweeps; ignoring")
	}
	// A job-set sweep scales every job's load along the load axis, and the
	// CSV carries one row per (scale, job) so per-job curves plot directly.
	switch {
	case replicate:
		fmt.Fprintln(stdout, "routing,pattern,load,runs,lat_mean,lat_sd,thr_mean,thr_sd,escape_mean")
	case r.Jobs != nil:
		fmt.Fprintln(stdout, "routing,job,nodes,scale,avg_latency,p50,p99,throughput,delivered,dropped")
	default:
		fmt.Fprintln(stdout, "routing,pattern,load,avg_latency,net_latency,p50,p99,throughput,avg_hops,global_mis,local_mis,ring_enters,delivered,dropped,fault_reroutes")
	}
	opt := ofar.SweepOptions{CheckpointDir: *ckpt, RestoreDir: *restore}
	runs, ran, restored := 1, 0, 0
	if replicate {
		runs = *seeds
	}
	for _, load := range r.Loads {
		var lat, thr, esc stats.Replication
		for i := range uint64(runs) {
			// One point per call keeps the CSV streaming.
			s := *seed + i
			exp.Seed = &s
			rs, err := exp.Resolve()
			if err != nil {
				return err
			}
			rs.Warmup, rs.Measure = r.Warmup, r.Measure
			row, err := rs.Run(load, opt)
			if err != nil {
				return err
			}
			ran++
			if row.Restored {
				restored++
			}
			lat.Add(row.AvgLatency)
			thr.Add(row.Throughput)
			esc.Add(row.EscapeFraction)
			for _, j := range row.Jobs {
				fmt.Fprintf(stdout, "%s,%s,%d,%.4f,%.2f,%.1f,%.1f,%.5f,%d,%d\n",
					row.Routing, j.Job, j.Nodes, load, j.AvgLatency,
					j.P50Latency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
			if r.Jobs == nil && !replicate {
				fmt.Fprintf(stdout, "%s,%s,%.4f,%.2f,%.2f,%.1f,%.1f,%.5f,%.3f,%d,%d,%d,%d,%d,%d\n",
					row.Routing, row.Pattern, row.Load, row.AvgLatency, row.AvgNetLatency,
					row.P50Latency, row.P99Latency,
					row.Throughput, row.AvgHops, row.GlobalMisroutes, row.LocalMisroutes,
					row.RingEnters, row.Delivered, row.Dropped, row.FaultReroutes)
			}
		}
		if replicate {
			fmt.Fprintf(stdout, "%s,%s,%.4f,%d,%.2f,%.2f,%.5f,%.5f,%.5f\n",
				r.Config.Routing, r.Pattern.Name(), load, runs,
				lat.Mean(), lat.StdDev(), thr.Mean(), thr.StdDev(), esc.Mean())
		}
	}
	if *ckpt != "" || *restore != "" {
		warmed := ran - restored
		fmt.Fprintf(stderr, "sweep: warm cache: %d point(s) restored (%d warmup cycles skipped), %d warmed (%d cycles)\n",
			restored, restored*r.Warmup, warmed, warmed*r.Warmup)
	}
	return nil
}
