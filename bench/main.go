// Command bench is the repository's benchmark: five workloads, end-to-end
// metrics measured with tracing off, and a traced run that times calls into
// each layer from outside. BENCHMARK.json at the repository root names the
// command line the driver uses; README.md in this directory explains the
// workloads, the metrics and how to make a claim with them.
//
//	bench -workload h6-adv-sat -seed 1 -seconds 10 -trace 0   one run, result JSON on the last line
//	bench -all [-runs 3] [-quick] [-out FILE]                 every workload, timed then traced, with cross-checks
//	bench -compare OLD.json NEW.json                          the noise-aware gate over two result files
//	bench -update-expected                                    re-pin bench/expected.json (seed 1)
//	bench -manifest                                           print BENCHMARK.json from the metric tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"ofar"
)

var processStart = time.Now()

// runCtx is what a workload receives: its generated-input seed, how long to
// measure, where to write, and the tracer (nil on a timed run).
type runCtx struct {
	seed    uint64
	seconds float64
	quick   bool
	tr      *tracer
	outDir  string
}

func (c *runCtx) traced() bool { return c.tr != nil }

// expired reports whether the measuring time is used up.
func (c *runCtx) expired(measureStart time.Time) bool {
	return time.Since(measureStart).Seconds() >= c.seconds
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload hands back: operation counts, correctness
// checks, metric values, the simulated facts that must not move, and notes
// (sample counts and tails of every timing).
type outcome struct {
	attempted, failed int64
	checks            []checkResult
	e2e               map[string]float64
	layer             map[string]float64
	facts             map[string]string
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, facts: map[string]string{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0 && o.attempted > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runRecord is one line of a result file (-out): everything -all and
// -compare need about one run.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Quick    bool               `json:"quick"`
	Host     hostInfo           `json:"host"`
	Engine   string             `json:"engine_digest"`
	Result   result             `json:"result"`
	Facts    map[string]string  `json:"facts"`
	Checks   []checkResult      `json:"checks"`
	Notes    []string           `json:"notes"`
	Layers   map[string]float64 `json:"layer_self_ms,omitempty"`
	// Observed holds the end-to-end values as this run saw them, also on a
	// traced run, whose result carries only per-layer metrics.
	Observed map[string]float64 `json:"observed"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = timed run (end-to-end metrics)")
		quick    = flag.Bool("quick", false, "shrink every workload to a functional pass; for tests, never for numbers")
		out      = flag.String("out", "", "append each run's record to this NDJSON result file")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files and scratch state")
		all      = flag.Bool("all", false, "run every workload, timed then traced, each in its own process")
		runs     = flag.Int("runs", 1, "with -all: timed runs per workload (a set is 3)")
		list     = flag.Bool("list", false, "list workloads and metrics")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric tables")
		compare  = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
		update   = flag.Bool("update-expected", false, "re-pin bench/expected.json from a seed-1 pass")
	)
	flag.Parse()
	if *quick && !isFlagSet("seconds") {
		*seconds = 0.3
	}
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare OLD.json NEW.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *update:
		os.Exit(updateExpected(*outDir))
	case *all:
		os.Exit(runAll(*seed, *seconds, *quick, *runs, *out, *outDir))
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fatal("unknown workload %q (see -list)", *workload)
		}
		ctx := &runCtx{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
		if *trace != 0 {
			ctx.tr = newTracer(processStart)
		}
		rec, err := runOne(w, ctx)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal("%v", err)
			}
		}
		printRecord(rec)
		if !rec.Result.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs a workload in this process and assembles its record: the
// fixture check, peak memory and the metric set of the run's kind. Timings
// are withheld when a check fails.
func runOne(w *workloadDef, ctx *runCtx) (*runRecord, error) {
	if err := os.MkdirAll(ctx.outDir, 0o755); err != nil {
		return nil, err
	}
	root := ctx.tr.begin(ctx.tr.newOp(), -1, "bench", w.Name)
	o, err := w.run(ctx)
	if err != nil {
		return nil, err
	}
	ctx.tr.end(root, o.attempted)
	checkExpected(w.Name, ctx, o)
	o.e2e["peak_rss_mb"] = peakRSSMB()

	rec := &runRecord{
		Workload: w.Name, Seed: ctx.seed, Seconds: ctx.seconds, Trace: ctx.traced(), Quick: ctx.quick,
		Host: thisHost(), Engine: fmt.Sprintf("%016x", ofar.EngineDigest()),
		Facts: o.facts, Checks: o.checks, Notes: o.notes, Observed: o.e2e,
	}
	defs, values := endToEnd, o.e2e
	if ctx.traced() {
		defs, values = perLayer, o.layer
		o.layer["host.gomaxprocs"] = float64(rec.Host.GOMAXPROCS)
		o.layer["host.numcpu"] = float64(rec.Host.NumCPU)
		rec.Layers = map[string]float64{}
		for layer, ns := range selfTimes(ctx.tr.spans) {
			rec.Layers[layer] = ms(time.Duration(ns))
		}
		path := filepath.Join(ctx.outDir, w.Name+".trace.json")
		if err := ctx.tr.write(path); err != nil {
			return nil, err
		}
		o.note("trace: %d spans written to %s", len(ctx.tr.spans), path)
	}
	for _, d := range defs {
		if v := values[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			o.check("metric "+d.Name+" is a number", false, "%v", v)
		}
	}
	rec.Result = result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if rec.Result.Correct {
		for _, d := range defs {
			rec.Result.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		}
	}
	return rec, nil
}

// printRecord prints every metric by name with its unit, the notes and the
// checks, and the result JSON as the last line.
func printRecord(rec *runRecord) {
	kind := "timed"
	if rec.Trace {
		kind = "traced"
	}
	fmt.Printf("# %s (%s) seed=%d seconds=%g quick=%v GOMAXPROCS=%d NumCPU=%d %s commit=%s engine=%s\n",
		rec.Workload, kind, rec.Seed, rec.Seconds, rec.Quick, rec.Host.GOMAXPROCS, rec.Host.NumCPU, rec.Host.GoVersion, rec.Host.Commit, rec.Engine)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := rec.Result.Metrics[d.Name]; ok {
			fmt.Printf("%-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(rec.Layers) > 0 {
		fmt.Println("# layer self time (span minus the part its children cover)")
		names := make([]string, 0, len(rec.Layers))
		for l := range rec.Layers {
			names = append(names, l)
		}
		slices.Sort(names)
		for _, l := range names {
			fmt.Printf("%-36s %14.3f ms\n", "self."+l, rec.Layers[l])
		}
	}
	for _, n := range rec.Notes {
		fmt.Println("# " + n)
	}
	for _, c := range rec.Checks {
		if c.OK {
			fmt.Printf("# check ok   %s\n", c.Name)
		} else {
			fmt.Printf("# check FAIL %s: %s\n", c.Name, c.Detail)
		}
	}
	if !rec.Result.Correct {
		fmt.Println("# checks failed: timings withheld")
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads an NDJSON result file.
func readRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// peakRSSMB is the process's peak resident set (VmHWM); each workload runs in
// its own process, so peaks do not leak between them.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (timed run):")
	for _, d := range endToEnd {
		fmt.Printf("  %-36s %-18s better=%s bound=%g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, d := range perLayer {
		fmt.Printf("  %-36s %-18s better=%s\n", d.Name, d.Unit, d.Better)
	}
}

// manifestJSON renders BENCHMARK.json from the tables in metrics.go.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(m, "", "  ")
	return append(data, '\n')
}

// spawn re-executes this binary for one run of a workload, which appends its
// record to the result file out.
func spawn(stdout io.Writer, workload string, seed uint64, seconds float64, trace int, quick bool, out, outDir string) error {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", out, "-outdir", outDir}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	return cmd.Run()
}

// runAll is the one command: every workload in its own process (so memory
// peaks and caches do not leak between them), `runs` timed runs then one
// traced run, followed by the checks that need two runs side by side.
func runAll(seed uint64, seconds float64, quick bool, runs int, out, outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("all-%d.ndjson", os.Getpid()))
	defer os.Remove(tmp)
	child := func(w string, trace int) bool {
		return spawn(os.Stdout, w, seed, seconds, trace, quick, tmp, outDir) == nil
	}
	ok := true
	for _, w := range workloads {
		for i := 0; i < max(runs, 1); i++ {
			ok = child(w.Name, 0) && ok
		}
		ok = child(w.Name, 1) && ok
	}
	recs, err := readRecords(tmp)
	if err != nil {
		fatal("%v", err)
	}
	if out != "" {
		for i := range recs {
			if err := appendRecord(out, &recs[i]); err != nil {
				fatal("%v", err)
			}
		}
	}
	return report(os.Stdout, recs, ok)
}
