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
	"io"

	"ofar/internal/cli"
	"ofar/internal/stats"
)

func main() { cli.Main("sweep", run) }

// run parses args and streams the sweep's CSV to stdout, one row per point
// (per job for job sets) as it completes; notes go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := cli.BindPoint(fs)
	var (
		from   = fs.Float64("from", 0.05, "first load point")
		to     = fs.Float64("to", 1.0, "last load point")
		points = fs.Int("points", 10, "number of load points")
		seeds  = fs.Int("seeds", 1, "replicate each point across this many seeds, -seed upward (mean±sd output; pattern sweeps)")
	)
	if err := p.Parse(args); err != nil {
		return err
	}
	if *points < 1 {
		return fmt.Errorf("-points %d: want ≥ 1", *points)
	}
	loads := make([]float64, *points)
	for i := range loads {
		if *points == 1 {
			loads[i] = *from
		} else {
			loads[i] = *from + (*to-*from)*float64(i)/float64(*points-1)
		}
	}
	r, err := p.Resolve(loads...)
	if err != nil {
		return err
	}
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
	runs, ran, restored := 1, 0, 0
	if replicate {
		runs = *seeds
	}
	for _, load := range r.Loads {
		var lat, thr, esc stats.Replication
		for i := range uint64(runs) {
			// One point per call keeps the CSV streaming.
			p.Config.Seed = p.Seed + i
			rs, err := p.Resolve(load)
			if err != nil {
				return err
			}
			row, err := rs.Run(load, p.SweepOptions)
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
	p.CacheNote(stderr, ran, restored)
	return nil
}
