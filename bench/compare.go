package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// report summarises the records of one -all pass: per workload the median of
// each end-to-end metric over its timed runs, the tracing overhead, and the
// checks that need two runs side by side. It returns the exit code.
func report(w io.Writer, recs []runRecord, childrenOK bool) int {
	ok := childrenOK
	timed := map[string][]runRecord{}
	traced := map[string]runRecord{}
	for _, r := range recs {
		if r.Trace {
			traced[r.Workload] = r
		} else {
			timed[r.Workload] = append(timed[r.Workload], r)
		}
	}
	medianOf := func(name, metric string) float64 {
		var xs []float64
		for _, r := range timed[name] {
			if m, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return median(xs)
	}
	fmt.Fprintf(w, "\n# summary: median of %d timed run(s) per workload\n", len(timed[workloads[0].Name]))
	fmt.Fprintf(w, "%-16s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %16s", d.Name)
	}
	fmt.Fprintf(w, " %18s\n", "trace.overhead_pct")
	for _, wl := range workloads {
		fmt.Fprintf(w, "%-16s", wl.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %16.6g", medianOf(wl.Name, d.Name))
		}
		// The traced run's own rate is carried in its record as an observed
		// value; the difference to the timed runs is what tracing cost.
		overhead := math.NaN()
		if tr, found := traced[wl.Name]; found {
			overhead = 100 * (1 - tr.Observed["ops_per_s"]/medianOf(wl.Name, "ops_per_s"))
		}
		fmt.Fprintf(w, " %18.2f\n", overhead)
	}
	check := func(name string, good bool, detail string) {
		if good {
			fmt.Fprintf(w, "# check ok   %s\n", name)
		} else {
			fmt.Fprintf(w, "# check FAIL %s: %s\n", name, detail)
			ok = false
		}
	}
	for _, wl := range workloads {
		ts, tr := timed[wl.Name], traced[wl.Name]
		if len(ts) == 0 || tr.Workload == "" {
			check(wl.Name+": timed and traced runs present", false, "a run is missing")
			continue
		}
		d := diffFacts(tr.Facts, ts[0].Facts)
		check(wl.Name+": timed and traced runs give identical simulated facts", d == "", d)
	}
	if ser, par := timed["h6-adv-sat"], timed["h6-adv-sat-par"]; len(ser) > 0 && len(par) > 0 {
		d := diffFacts(par[0].Facts, ser[0].Facts)
		check("h6-adv-sat-par equals h6-adv-sat in every simulated fact and the grant digest", d == "", d)
		workers := min(4, par[0].Host.GOMAXPROCS)
		speedup := medianOf("h6-adv-sat-par", "ops_per_s") / medianOf("h6-adv-sat", "ops_per_s")
		fmt.Fprintf(w, "# network.par_speedup across workloads: %.3f (efficiency %.3f at %d workers, GOMAXPROCS=%d)\n",
			speedup, speedup/float64(max(workers, 1)), workers, par[0].Host.GOMAXPROCS)
	}
	if !ok {
		fmt.Fprintln(w, "# FAILED")
		return 1
	}
	fmt.Fprintln(w, "# all checks passed")
	return 0
}

// verdict is the outcome of the noise-aware rule for one workload × metric.
type verdict struct {
	Pairs, Wins, Losses  int
	OldMedian, NewMedian float64
	OldQ1, OldQ3         float64
	NewQ1, NewQ3         float64
	Verdict              string // gain, regression, unchanged, unresolved, too few pairs
}

// minPairs is how many parent/change pairs a claim needs.
const minPairs = 10

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	if m < 2 {
		return median(xs), median(xs)
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// judge applies the rule to paired values of one metric: a gain only if the
// change wins at least nine tenths of the pairs (ties count for neither) and
// the medians differ by more than the parent's inter-quartile distance; a
// regression if the change's median is worse than the parent's by more than
// the bound; unresolved where the parent's spread exceeds the bound.
func judge(old, new []float64, d metricDef) verdict {
	n := min(len(old), len(new))
	v := verdict{Pairs: n}
	if n == 0 {
		v.Verdict = "too few pairs"
		return v
	}
	old, new = old[:n], new[:n]
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range old {
		switch {
		case better(new[i], old[i]):
			v.Wins++
		case better(old[i], new[i]):
			v.Losses++
		}
	}
	v.OldMedian, v.NewMedian = median(old), median(new)
	v.OldQ1, v.OldQ3 = quartiles(old)
	v.NewQ1, v.NewQ3 = quartiles(new)
	iqr := v.OldQ3 - v.OldQ1
	worse := (v.OldMedian - v.NewMedian) / math.Abs(v.OldMedian) // share the change is worse by
	if d.Better == "lower" {
		worse = -worse
	}
	switch {
	case n < minPairs:
		v.Verdict = "too few pairs"
	case worse > d.Bound:
		v.Verdict = "regression"
	case float64(v.Wins) >= 0.9*float64(n) && math.Abs(v.NewMedian-v.OldMedian) > iqr:
		v.Verdict = "gain"
	case iqr/math.Abs(v.OldMedian) > d.Bound:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareFiles reads two result files of timed runs — the parent's and the
// change's, taken as alternating pairs — and prints the verdict for every
// workload × end-to-end metric. The i-th run of a workload in one file pairs
// with the i-th in the other. Exit code: 0 no regression, 1 a regression or
// too few pairs, 2 the files cannot be compared.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	load := func(path string) (map[string][]runRecord, hostInfo, float64) {
		recs, err := readRecords(path)
		if err != nil {
			fatal("%v", err)
		}
		by := map[string][]runRecord{}
		var host hostInfo
		var seconds float64
		for _, r := range recs {
			if r.Trace || !r.Result.Correct {
				continue
			}
			if host.GoVersion != "" && (r.Host.GOMAXPROCS != host.GOMAXPROCS || r.Host.NumCPU != host.NumCPU || r.Seconds != seconds) {
				fatal("%s mixes host shapes or run lengths", path)
			}
			host, seconds = r.Host, r.Seconds
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, host, seconds
	}
	old, oldHost, oldSec := load(oldPath)
	new, newHost, newSec := load(newPath)
	if oldHost.GOMAXPROCS != newHost.GOMAXPROCS || oldHost.NumCPU != newHost.NumCPU || oldSec != newSec {
		fmt.Fprintf(w, "refusing to compare: %s is GOMAXPROCS=%d NumCPU=%d seconds=%g, %s is GOMAXPROCS=%d NumCPU=%d seconds=%g\n",
			oldPath, oldHost.GOMAXPROCS, oldHost.NumCPU, oldSec, newPath, newHost.GOMAXPROCS, newHost.NumCPU, newSec)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-16s %5s %5s %13s %13s %13s %13s  %s\n", "workload", "metric", "pairs", "wins", "old median", "old q1..q3", "new median", "new q1..q3", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			var a, b []float64
			for _, r := range old[wl.Name] {
				a = append(a, r.Result.Metrics[d.Name].Value)
			}
			for _, r := range new[wl.Name] {
				b = append(b, r.Result.Metrics[d.Name].Value)
			}
			v := judge(a, b, d)
			fmt.Fprintf(w, "%-16s %-16s %5d %5d %13.6g %6.4g..%-6.4g %13.6g %6.4g..%-6.4g  %s\n",
				wl.Name, d.Name, v.Pairs, v.Wins, v.OldMedian, v.OldQ1, v.OldQ3, v.NewMedian, v.NewQ1, v.NewQ3, v.Verdict)
			if v.Verdict == "regression" || v.Verdict == "too few pairs" {
				code = 1
			}
		}
	}
	return code
}
