// Command ofarsim runs a single steady-state dragonfly simulation and
// prints latency, throughput and routing statistics.
//
// Examples:
//
//	ofarsim -h 3 -routing OFAR -pattern ADV+3 -load 0.5
//	ofarsim -h 6 -routing PB -pattern UN -load 0.3 -warmup 5000 -measure 10000
//	ofarsim -h 3 -routing OFAR -ring embedded -rings 2 -pattern ADV+3 -load 1.0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ofar"
)

func main() {
	pol := ofar.DefaultOFARConfig()
	var (
		h        = flag.Int("h", 3, "dragonfly parameter h (balanced: p=h, a=2h, max groups)")
		groups   = flag.Int("groups", 0, "group count (0 = maximum size a*h+1)")
		routing  = flag.String("routing", "OFAR", "routing mechanism: MIN, VAL, PB, UGAL-L, PAR, OFAR, OFAR-L")
		pattern  = flag.String("pattern", "UN", "traffic pattern: UN, ADV+<n>, MIX1, MIX2, MIX3")
		load     = flag.Float64("load", 0.3, "offered load in phits/(node*cycle)")
		warmup   = flag.Int("warmup", 3000, "warm-up cycles")
		measure  = flag.Int("measure", 5000, "measurement cycles")
		ring     = flag.String("ring", "physical", "escape ring: none, physical, embedded")
		rings    = flag.Int("rings", 1, "number of escape rings")
		seed     = flag.Uint64("seed", 1, "random seed")
		nonMin   = flag.Float64("nonmin-factor", pol.NonMinFactor, "OFAR variable threshold factor")
		static   = flag.Float64("static-th", pol.StaticNonMin, "OFAR static non-minimal threshold (<0 = the paper's §V variable policy: Th_min 0, Th_non-min = nonmin-factor·Q_min)")
		escapeTO = flag.Int("escape-timeout", pol.EscapeTimeout, "blocked cycles before requesting the escape ring")
		faults   = flag.String("faults", "", "fault schedule: a JSON file of Fault objects, or inline like link@5000:12:7,router@20000:3")
		workers  = flag.Int("workers", 0, "intra-cycle workers: a persistent pool steals whole dragonfly groups each window (0/1 = no pool; results are bit-identical)")
		ckpt     = flag.String("checkpoint", "", "write the post-warmup network snapshot to this file (resume later with -restore)")
		restore  = flag.String("restore", "", "resume from a warm snapshot file instead of simulating warmup (same config and physics required; results are bit-identical)")
		jobs     = flag.String("jobs", "", "job-level workload instead of -pattern: kind:size@load[,...] with kinds stencil (size XxYxZ), a2a, ring, ps; -load scales every job")
		jobMap   = flag.String("jobmap", "linear", "job placement: linear (consecutive nodes) or random (seeded permutation)")
		bg       = flag.Float64("bg", 0, "uniform background load on nodes no job occupies")
		traceOut = flag.String("trace-out", "", "record every generated packet to this trace file")
		traceIn  = flag.String("trace-in", "", "replay a trace file instead of generating traffic (overrides -pattern/-jobs/-load)")
		quiet    = flag.Bool("q", false, "print a single CSV row instead of the report")
		confPath = flag.String("config", "", "load the full network config from a JSON file (overrides topology/router flags)")
		dumpConf = flag.Bool("dump-config", false, "print the effective config as JSON and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	)
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal("creating CPU profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal("creating heap profile: %v", err)
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("writing heap profile: %v", err)
			}
		}()
	}

	// Flags → one Experiment → Resolve: the routing conventions, validation
	// and pattern|jobs parsing are the resolver's. -load and the windows stay
	// flags (-load doubles as the job scale; an explicit 0 means 0 cycles).
	exp := ofar.Experiment{Jobs: *jobs, JobMap: *jobMap, Background: *bg}
	if *jobs == "" {
		exp.Pattern = *pattern
	}
	var base ofar.Config
	if *confPath != "" {
		// The file is the whole network description; only an explicit
		// -workers overrides it (wall-clock only, never results).
		var err error
		base, err = ofar.LoadConfig(*confPath)
		check(err)
		if given["workers"] {
			base.Workers = *workers
		}
	} else {
		base = ofar.DefaultConfig(*h)
		base.Groups = *groups
		base.Seed = *seed
		base.OFAR = ofarPolicy(given, *nonMin, *static, *escapeTO)
		mode, ok := map[string]ofar.RingMode{
			"none": ofar.RingNone, "physical": ofar.RingPhysical, "embedded": ofar.RingEmbedded,
		}[strings.ToLower(*ring)]
		if !ok {
			fatal("unknown ring mode %q", *ring)
		}
		base.Ring = mode
		base.NumRings = *rings
		base.Workers = *workers
		exp.Routing = *routing
	}
	if *faults != "" {
		fs, err := ofar.LoadFaults(*faults)
		check(err)
		base.Faults = fs
	}
	exp.Config = &base
	r, err := exp.Resolve()
	check(err)
	cfg, ps := r.Config, r.Pattern
	if *dumpConf {
		data, err := ofar.ConfigToJSON(cfg)
		check(err)
		fmt.Println(string(data))
		return
	}

	// Trace replay: re-inject a recorded stream through a fresh network. A
	// trace recorded by this build reproduces its run's grant digest
	// bit-identically, which is what the printed digest line is for.
	if *traceIn != "" {
		if *jobs != "" || *ckpt != "" || *restore != "" {
			fatal("-trace-in composes with none of -jobs, -checkpoint, -restore")
		}
		recs, engine, err := ofar.LoadTrace(*traceIn)
		check(err)
		if engine != 0 && engine != ofar.EngineDigest() {
			fmt.Fprintf(os.Stderr, "ofarsim: warning: trace written by engine %016x, this build is %016x — replay will not be bit-identical\n",
				engine, ofar.EngineDigest())
		}
		res, digest, err := ofar.ReplayTrace(cfg, recs, *warmup, *measure)
		if err != nil {
			fatal("replay failed: %v", err)
		}
		if *quiet {
			fmt.Printf("%s,%s,%.3f,%.2f,%.4f,%d,%d,%d,%d\n",
				res.Routing, res.Pattern, res.Load, res.AvgLatency, res.Throughput,
				res.GlobalMisroutes, res.LocalMisroutes, res.RingEnters, res.Delivered)
		} else {
			fmt.Printf("replayed      : %d records from %s\n", len(recs), *traceIn)
			fmt.Printf("avg latency   : %.1f cycles\n", res.AvgLatency)
			fmt.Printf("throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
			fmt.Printf("delivered     : %d packets in the measurement window\n", res.Delivered)
		}
		fmt.Printf("grant digest  : %016x\n", digest)
		return
	}

	// Job-level workload: N concurrent jobs with per-job statistics.
	if r.Jobs != nil {
		if *ckpt != "" || *restore != "" {
			fatal("-jobs does not compose with -checkpoint/-restore yet")
		}
		// Jobs carry their own loads; -load is a scale factor on all of
		// them, applied only when given explicitly (its 0.3 default is the
		// single-pattern convention, not a sensible implicit job scaling).
		scale := 1.0
		if given["load"] {
			scale = *load
		}
		var (
			jr     ofar.JobsResult
			digest uint64
		)
		if *traceOut != "" {
			var recs []ofar.TraceRecord
			jr, recs, digest, err = ofar.RunJobsTraced(cfg, *r.Jobs, scale, *warmup, *measure)
			if err == nil {
				err = ofar.SaveTrace(*traceOut, recs)
			}
		} else {
			jr, err = ofar.RunJobs(cfg, *r.Jobs, scale, *warmup, *measure)
		}
		if err != nil {
			fatal("simulation failed: %v", err)
		}
		if *quiet {
			for _, j := range jr.Jobs {
				fmt.Printf("%s,%s,%d,%.2f,%.2f,%.4f,%d,%d\n",
					jr.Agg.Routing, j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		} else {
			fmt.Printf("workload      : %s (scale %.3f)\n", jr.Workload, jr.Scale)
			fmt.Printf("routing       : %s\n", jr.Agg.Routing)
			fmt.Printf("aggregate     : avg %.1f cycles, p99 %.1f, throughput %.4f\n",
				jr.Agg.AvgLatency, jr.Agg.P99Latency, jr.Agg.Throughput)
			fmt.Printf("%-12s %6s %10s %10s %10s %12s %8s\n", "job", "nodes", "avg", "p99", "thru", "delivered", "dropped")
			for _, j := range jr.Jobs {
				fmt.Printf("%-12s %6d %10.1f %10.1f %10.4f %12d %8d\n",
					j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		}
		if *traceOut != "" {
			fmt.Printf("grant digest  : %016x\n", digest)
			fmt.Printf("trace written : %s\n", *traceOut)
		}
		return
	}

	var res ofar.SteadyResult
	var traceDigest uint64
	if *traceOut != "" {
		if *ckpt != "" || *restore != "" {
			fatal("-trace-out does not compose with -checkpoint/-restore yet")
		}
		var recs []ofar.TraceRecord
		res, recs, traceDigest, err = ofar.RunSteadyTraced(cfg, ps, *load, *warmup, *measure)
		if err != nil {
			fatal("simulation failed: %v", err)
		}
		if err := ofar.SaveTrace(*traceOut, recs); err != nil {
			fatal("writing trace %s: %v", *traceOut, err)
		}
	} else if *ckpt == "" && *restore == "" {
		var err error
		res, err = ofar.RunSteady(cfg, ps, *load, *warmup, *measure)
		if err != nil {
			fatal("simulation failed: %v", err)
		}
	} else {
		// Checkpoint/restore path: hold the warm state explicitly and
		// measure on it in place — bit-identical to RunSteady above.
		var w *ofar.WarmState
		if *restore != "" {
			data, err := os.ReadFile(*restore)
			check(err)
			if w, err = ofar.WarmFromSnapshot(cfg, ps, *load, bytes.NewReader(data)); err != nil {
				fatal("restoring %s: %v", *restore, err)
			}
		} else if w, err = ofar.Warm(cfg, ps, *load, *warmup); err != nil {
			fatal("simulation failed: %v", err)
		}
		defer w.Close()
		if *ckpt != "" {
			var img bytes.Buffer
			err := w.Snapshot(&img)
			if err == nil {
				err = os.WriteFile(*ckpt, img.Bytes(), 0o644)
			}
			if err != nil {
				fatal("writing checkpoint %s: %v", *ckpt, err)
			}
		}
		if res, err = w.MeasureInPlace(*measure); err != nil {
			fatal("simulation failed: %v", err)
		}
	}
	if *quiet {
		fmt.Printf("%s,%s,%.3f,%.2f,%.4f,%d,%d,%d,%d\n",
			res.Routing, res.Pattern, res.Load, res.AvgLatency, res.Throughput,
			res.GlobalMisroutes, res.LocalMisroutes, res.RingEnters, res.Delivered)
		if *traceOut != "" {
			fmt.Printf("grant digest  : %016x\n", traceDigest)
		}
		return
	}
	fmt.Println(networkLine(cfg))
	fmt.Printf("routing       : %s\n", res.Routing)
	fmt.Printf("traffic       : %s at %.3f phits/(node*cycle)\n", res.Pattern, res.Load)
	fmt.Printf("avg latency   : %.1f cycles (network %.1f, max %d)\n",
		res.AvgLatency, res.AvgNetLatency, res.MaxLatency)
	fmt.Printf("throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
	fmt.Printf("avg hops      : %.2f\n", res.AvgHops)
	fmt.Printf("delivered     : %d packets in the measurement window\n", res.Delivered)
	fmt.Printf("misroutes     : %d global, %d local\n", res.GlobalMisroutes, res.LocalMisroutes)
	fmt.Printf("escape ring   : %d entries (%.3f%% of delivered), %d exits\n",
		res.RingEnters, 100*res.EscapeFraction, res.RingExits)
	if len(cfg.Faults) > 0 {
		fmt.Printf("faults        : %d scheduled, %d packets dropped, %d fault reroutes, %d flows affected\n",
			len(cfg.Faults), res.Dropped, res.FaultReroutes, res.AffectedFlows)
	}
	if *traceOut != "" {
		fmt.Printf("grant digest  : %016x\n", traceDigest)
		fmt.Printf("trace written : %s\n", *traceOut)
	}
}

// ofarPolicy is the OFAR tuning the policy flags select. Flags left unset
// keep the library default (ofar.DefaultOFARConfig, what sweep and sweepd
// run); an explicit -static-th below 0 selects the paper's §V variable policy
// in full (ofar.DefaultOFARVariableConfig), one at or above 0 a static
// threshold; -nonmin-factor and -escape-timeout set their own fields.
func ofarPolicy(given map[string]bool, nonMin, static float64, escapeTO int) ofar.OFARConfig {
	c := ofar.DefaultOFARConfig()
	if given["static-th"] {
		if static < 0 {
			c = ofar.DefaultOFARVariableConfig()
		} else {
			c.StaticNonMin = static
		}
	}
	if given["nonmin-factor"] {
		c.NonMinFactor = nonMin
	}
	if given["escape-timeout"] {
		c.EscapeTimeout = escapeTO
	}
	return c
}

// networkLine is the report's first line, printed from the effective
// configuration — after -config and the routing conventions — never from
// the flag values.
func networkLine(cfg ofar.Config) string {
	groups := cfg.Groups
	if groups == 0 {
		groups = cfg.A*cfg.H + 1
	}
	ring := "escape ring: none"
	if cfg.Ring != ofar.RingNone {
		ring = fmt.Sprintf("%v escape ring x%d", cfg.Ring, cfg.NumRings)
	}
	return fmt.Sprintf("network       : h=%d (p=%d a=%d groups=%d, %d nodes), %s",
		cfg.H, cfg.P, cfg.A, groups, cfg.P*cfg.A*groups, ring)
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ofarsim: "+format+"\n", args...)
	os.Exit(1)
}
