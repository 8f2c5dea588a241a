// Package cli declares the flags the commands share, once each: BindRun the
// run flags ofarsim, sweep and experiments all take, BindPoint the point
// flags ofarsim and sweep add, bound straight into an ofar.Experiment.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ofar"
	"ofar/internal/network"
)

// Main runs a command's run on the process's arguments and streams; an error
// other than a -help request is printed and exits 1.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Run holds the run flags.
type Run struct {
	H, Warmup, Measure, Workers int
	Seed                        uint64
	Faults                      []ofar.Fault // -faults, read by Parse; nil when absent
	ofar.SweepOptions                        // the warm cache of -checkpoint and -restore
	// Config is the paper's DefaultConfig(-h) with -seed, -workers and
	// -faults, built by Parse; a command may adjust it before Resolve.
	Config ofar.Config

	faults string
	fs     *flag.FlagSet
}

// BindRun declares the run flags on fs.
func BindRun(fs *flag.FlagSet) *Run {
	r := &Run{fs: fs}
	fs.IntVar(&r.H, "h", 3, "dragonfly parameter h (balanced: p=h, a=2h, up to 2h²+1 groups; 6 = paper scale)")
	fs.IntVar(&r.Warmup, "warmup", 3000, "warm-up cycles per point (0 = none)")
	fs.IntVar(&r.Measure, "measure", 5000, "measurement cycles per point")
	fs.Uint64Var(&r.Seed, "seed", 1, "random seed")
	fs.IntVar(&r.Workers, "workers", 0, "pool workers per network, stealing whole dragonfly groups each window (0/1 = no pool; results are bit-identical)")
	fs.StringVar(&r.faults, "faults", "", "fault schedule added to every run: a JSON file of Fault objects, or inline like link@5000:12:7,router@20000:3")
	fs.StringVar(&r.CheckpointDir, "checkpoint", "", "directory to write per-point warm snapshots into (reuse with -restore)")
	fs.StringVar(&r.RestoreDir, "restore", "", "directory of warm snapshots: steady-state points found there skip warmup, bit-identically (stale entries re-warm)")
	return r
}

// Parse parses args, refuses windows no run can have, reads -faults — a
// JSON file holding an array of Fault objects or, when no such file exists,
// an inline schedule — and builds Config.
func (r *Run) Parse(args []string) (err error) {
	if err = r.fs.Parse(args); err != nil {
		return err
	}
	if r.Warmup < 0 || r.Measure < 1 {
		return fmt.Errorf("-warmup %d / -measure %d: want ≥ 0 / ≥ 1", r.Warmup, r.Measure)
	}
	if data, rerr := os.ReadFile(r.faults); rerr != nil { // no such file: inline ("" is none)
		r.Faults, err = network.ParseFaults(r.faults)
	} else if err = json.Unmarshal(data, &r.Faults); err != nil {
		err = fmt.Errorf("parsing fault file %s: %w", r.faults, err)
	}
	r.Config = ofar.DefaultConfig(r.H)
	r.Config.Seed, r.Config.Workers, r.Config.Faults = r.Seed, r.Workers, r.Faults
	return err
}

// Resolve resolves e with the flags' windows. The resolver reads an absent
// window as its default; a flag's 0 is 0 cycles.
func (r *Run) Resolve(e ofar.Experiment) (ofar.Resolved, error) {
	res, err := e.Resolve()
	res.Warmup, res.Measure = r.Warmup, r.Measure
	return res, err
}

// Point holds the run flags and the point flags.
type Point struct {
	*Run
	Experiment ofar.Experiment // -routing, -pattern, -jobs, -jobmap, -bg
}

// BindPoint declares the run flags and the point flags on fs.
func BindPoint(fs *flag.FlagSet) *Point {
	p := &Point{Run: BindRun(fs)}
	e := &p.Experiment
	fs.StringVar(&e.Routing, "routing", "OFAR", "routing mechanism: MIN, VAL, PB, UGAL-L, PAR, OFAR, OFAR-L (any case)")
	fs.StringVar(&e.Pattern, "pattern", "UN", "traffic pattern: UN (or UNIFORM), ADV+<n>, MIX1, MIX2, MIX3, BITCOMP, BITREV, SHUFFLE, TORNADO, PERM, or a 3-D stencil ST<x>x<y>x<z>/lin or /rnd (linear or random task map)")
	fs.StringVar(&e.Jobs, "jobs", "", "job-level workload instead of -pattern: kind:size@load[,...] with kinds stencil (size XxYxZ), a2a, ring, ps; the offered load scales every job")
	fs.StringVar(&e.JobMap, "jobmap", "linear", "job placement: linear (consecutive nodes) or random (seeded permutation)")
	fs.Float64Var(&e.Background, "bg", 0, "uniform background load on nodes no job occupies")
	return p
}

// Resolve resolves the point flags on Config at loads, refusing a negative
// or NaN load.
func (p *Point) Resolve(loads ...float64) (ofar.Resolved, error) {
	for _, l := range loads {
		if !(l >= 0) {
			return ofar.Resolved{}, fmt.Errorf("load %v: want ≥ 0", l)
		}
	}
	e := p.Experiment
	e.Config, e.Loads = &p.Config, loads
	if e.Jobs != "" {
		e.Pattern = "" // -pattern's default is not a second workload
	}
	return p.Run.Resolve(e)
}

// CacheNote prints to w, when -checkpoint or -restore is set, how many of
// ran points the warm cache restored.
func (p *Point) CacheNote(w io.Writer, ran, restored int) {
	if p.CheckpointDir != "" || p.RestoreDir != "" {
		warmed := ran - restored
		fmt.Fprintf(w, "%s: warm cache: %d point(s) restored (%d warmup cycles skipped), %d warmed (%d cycles)\n",
			p.fs.Name(), restored, restored*p.Warmup, warmed, warmed*p.Warmup)
	}
}
