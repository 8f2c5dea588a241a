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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ofar"
	"ofar/internal/cli"
)

func main() { cli.Main("ofarsim", run) }

// run parses args, simulates one point and prints its report to stdout;
// warnings and the warm-cache note go to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	pol := ofar.DefaultOFARConfig()
	fs := flag.NewFlagSet("ofarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := cli.BindPoint(fs)
	var (
		groups   = fs.Int("groups", 0, "group count (0 = maximum size a*h+1)")
		load     = fs.Float64("load", 0.3, "offered load in phits/(node*cycle)")
		ring     = fs.String("ring", "physical", "escape ring: none, physical, embedded")
		rings    = fs.Int("rings", 1, "number of escape rings")
		nonMin   = fs.Float64("nonmin-factor", pol.NonMinFactor, "OFAR variable threshold factor")
		static   = fs.Float64("static-th", pol.StaticNonMin, "OFAR static non-minimal threshold (<0 = the paper's §V variable policy: Th_min 0, Th_non-min = nonmin-factor·Q_min)")
		escapeTO = fs.Int("escape-timeout", pol.EscapeTimeout, "blocked cycles before requesting the escape ring")
		traceOut = fs.String("trace-out", "", "record every generated packet to this trace file")
		traceIn  = fs.String("trace-in", "", "replay a trace file instead of generating traffic (overrides -pattern/-jobs/-load)")
		quiet    = fs.Bool("q", false, "print a single CSV row instead of the report")
		confPath = fs.String("config", "", "load the full network config from a JSON file (overrides the topology, router and routing flags; -workers and -faults override the file)")
		dumpConf = fs.Bool("dump-config", false, "print the effective config as JSON and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	)
	if err := p.Parse(args); err != nil {
		return err
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, ferr := os.Create(*memProf)
			if ferr == nil {
				runtime.GC() // collect dead objects so the profile shows live state
				ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("writing heap profile: %w", ferr)
			}
		}()
	}

	// Flags → one Experiment → Resolve: the routing conventions, validation
	// and pattern|jobs parsing are the resolver's.
	if *confPath != "" {
		// The file is the whole network description; only an explicit
		// -workers (wall-clock only, never results) or -faults overrides it.
		if p.Config, err = ofar.LoadConfig(*confPath); err != nil {
			return err
		}
		if given["workers"] {
			p.Config.Workers = p.Workers
		}
		if p.Faults != nil {
			p.Config.Faults = p.Faults
		}
		p.Experiment.Routing = ""
	} else {
		p.Config.Groups = *groups
		p.Config.OFAR = ofarPolicy(given, *nonMin, *static, *escapeTO)
		mode, ok := map[string]ofar.RingMode{
			"none": ofar.RingNone, "physical": ofar.RingPhysical, "embedded": ofar.RingEmbedded,
		}[strings.ToLower(*ring)]
		if !ok {
			return fmt.Errorf("unknown ring mode %q", *ring)
		}
		p.Config.Ring, p.Config.NumRings = mode, *rings
	}
	r, err := p.Resolve(*load)
	if err != nil {
		return err
	}
	cfg := r.Config
	if *dumpConf {
		data, err := ofar.ConfigToJSON(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}

	// Trace replay: re-inject a recorded stream through a fresh network. A
	// trace recorded by this build reproduces its run's grant digest
	// bit-identically, which is what the printed digest line is for.
	if *traceIn != "" {
		if p.Experiment.Jobs != "" || p.CheckpointDir != "" || p.RestoreDir != "" {
			return errors.New("-trace-in composes with none of -jobs, -checkpoint, -restore")
		}
		recs, engine, err := ofar.LoadTrace(*traceIn)
		if err != nil {
			return err
		}
		if engine != 0 && engine != ofar.EngineDigest() {
			fmt.Fprintf(stderr, "ofarsim: warning: trace written by engine %016x, this build is %016x — replay will not be bit-identical\n",
				engine, ofar.EngineDigest())
		}
		res, digest, err := ofar.ReplayTrace(cfg, recs, r.Warmup, r.Measure)
		if err != nil {
			return fmt.Errorf("replay failed: %w", err)
		}
		if *quiet {
			csvRow(stdout, res)
		} else {
			fmt.Fprintf(stdout, "replayed      : %d records from %s\n", len(recs), *traceIn)
			fmt.Fprintf(stdout, "avg latency   : %.1f cycles\n", res.AvgLatency)
			fmt.Fprintf(stdout, "throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
			fmt.Fprintf(stdout, "delivered     : %d packets in the measurement window\n", res.Delivered)
		}
		fmt.Fprintf(stdout, "grant digest  : %016x\n", digest)
		return nil
	}

	// One point, pattern or job set, through the warm cache and the recorder
	// as asked. Jobs carry their own loads: -load scales all of them, and
	// only when given (its 0.3 default is the single-pattern convention, not
	// a sensible implicit job scaling).
	if r.Jobs != nil && !given["load"] {
		*load = 1
	}
	p.Record = *traceOut != ""
	res, err := r.Run(*load, p.SweepOptions)
	if err != nil {
		return fmt.Errorf("simulation failed: %w", err)
	}
	restored := 0
	if res.Restored {
		restored = 1
	}
	p.CacheNote(stderr, 1, restored)
	if *traceOut != "" {
		if err := ofar.SaveTrace(*traceOut, res.Trace); err != nil {
			return fmt.Errorf("writing trace %s: %w", *traceOut, err)
		}
	}
	switch {
	case r.Jobs != nil && *quiet:
		for _, j := range res.Jobs {
			fmt.Fprintf(stdout, "%s,%s,%d,%.2f,%.2f,%.4f,%d,%d\n",
				res.Routing, j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
		}
	case r.Jobs != nil:
		fmt.Fprintf(stdout, "workload      : %s (scale %.3f)\n", res.Pattern, res.Load)
		fmt.Fprintf(stdout, "routing       : %s\n", res.Routing)
		fmt.Fprintf(stdout, "aggregate     : avg %.1f cycles, p99 %.1f, throughput %.4f\n",
			res.AvgLatency, res.P99Latency, res.Throughput)
		fmt.Fprintf(stdout, "%-12s %6s %10s %10s %10s %12s %8s\n", "job", "nodes", "avg", "p99", "thru", "delivered", "dropped")
		for _, j := range res.Jobs {
			fmt.Fprintf(stdout, "%-12s %6d %10.1f %10.1f %10.4f %12d %8d\n",
				j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
		}
	case *quiet:
		csvRow(stdout, res.SteadyResult)
	default:
		fmt.Fprintln(stdout, networkLine(cfg))
		fmt.Fprintf(stdout, "routing       : %s\n", res.Routing)
		fmt.Fprintf(stdout, "traffic       : %s at %.3f phits/(node*cycle)\n", res.Pattern, res.Load)
		fmt.Fprintf(stdout, "avg latency   : %.1f cycles (network %.1f, max %d)\n",
			res.AvgLatency, res.AvgNetLatency, res.MaxLatency)
		fmt.Fprintf(stdout, "throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
		fmt.Fprintf(stdout, "avg hops      : %.2f\n", res.AvgHops)
		fmt.Fprintf(stdout, "delivered     : %d packets in the measurement window\n", res.Delivered)
		fmt.Fprintf(stdout, "misroutes     : %d global, %d local\n", res.GlobalMisroutes, res.LocalMisroutes)
		fmt.Fprintf(stdout, "escape ring   : %d entries (%.3f%% of delivered), %d exits\n",
			res.RingEnters, 100*res.EscapeFraction, res.RingExits)
		if len(cfg.Faults) > 0 {
			fmt.Fprintf(stdout, "faults        : %d scheduled, %d packets dropped, %d fault reroutes, %d flows affected\n",
				len(cfg.Faults), res.Dropped, res.FaultReroutes, res.AffectedFlows)
		}
	}
	if *traceOut != "" {
		fmt.Fprintf(stdout, "grant digest  : %016x\n", res.Digest)
		if r.Jobs != nil || !*quiet {
			fmt.Fprintf(stdout, "trace written : %s\n", *traceOut)
		}
	}
	return nil
}

// csvRow prints the -q row of a pattern point or a replay.
func csvRow(w io.Writer, res ofar.SteadyResult) {
	fmt.Fprintf(w, "%s,%s,%.3f,%.2f,%.4f,%d,%d,%d,%d\n",
		res.Routing, res.Pattern, res.Load, res.AvgLatency, res.Throughput,
		res.GlobalMisroutes, res.LocalMisroutes, res.RingEnters, res.Delivered)
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
