package ofar

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"ofar/internal/network"
	"ofar/internal/topology"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// Job-level workloads: instead of one homogeneous synthetic pattern, a
// Workload places N concurrent application jobs (stencil halo exchange,
// all-to-all phases, ring allreduce, parameter-server fan-in) onto node
// ranges, each with its own offered load and lifetime. Resolved.Run measures
// one with per-job statistics and can record its packet trace; the functions
// below replay and store traces. Inter-job interference is a job set run
// shared and once per job alone (the other jobs' loads and the background
// zeroed): see the interference figure of PaperFigures.

// JobSpec describes one job of a workload at the API surface. Kind is one of
// "stencil", "a2a", "ring", "ps". Tasks is the node count; stencil jobs give
// their task grid in Dims instead (Tasks is then its product). Load is in
// phits/(node·cycle) before sweep scaling. Start/End bound the job's active
// cycles; End <= 0 means the job runs forever.
type JobSpec struct {
	Kind  string  `json:"kind"`
	Tasks int     `json:"tasks"`
	Dims  [3]int  `json:"dims,omitempty"`
	Load  float64 `json:"load"`
	Start int64   `json:"start,omitempty"`
	End   int64   `json:"end,omitempty"`
}

// Workload is a set of concurrent jobs plus placement policy.
type Workload struct {
	Jobs []JobSpec `json:"jobs"`
	// RandomMap scatters each job's nodes via a seeded permutation instead
	// of packing them onto consecutive nodes (the paper's §III hotspot
	// regime is the consecutive one).
	RandomMap bool `json:"random_map,omitempty"`
	// Background is uniform traffic offered by nodes no job occupies,
	// phits/(node·cycle) before sweep scaling.
	Background float64 `json:"background,omitempty"`
}

var jobKinds = map[string]traffic.JobKind{
	"stencil": traffic.JobStencil,
	"a2a":     traffic.JobAll2All,
	"ring":    traffic.JobRing,
	"ps":      traffic.JobParamServer,
}

// parseWorkload parses the CLI workload syntax: comma-separated jobs, each
// `kind:size@load` with an optional `:start-end` lifetime window, e.g.
//
//	stencil:4x4x4@0.3,a2a:64@0.5,ps:32@0.2:1000-8000
//
// Stencil sizes are XxYxZ task grids; other kinds give a plain node count.
// Placement and background load are separate knobs on the Workload.
func parseWorkload(s string) (Workload, error) {
	var w Workload
	if strings.TrimSpace(s) == "" {
		return w, fmt.Errorf("empty workload spec")
	}
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return w, fmt.Errorf("job %q: want kind:size@load[:start-end]", part)
		}
		var j JobSpec
		j.Kind = strings.ToLower(fields[0])
		if _, ok := jobKinds[j.Kind]; !ok {
			return w, fmt.Errorf("job %q: unknown kind %q (stencil, a2a, ring, ps)", part, fields[0])
		}
		size, loadStr, ok := strings.Cut(fields[1], "@")
		if !ok {
			return w, fmt.Errorf("job %q: missing @load", part)
		}
		var err error
		if j.Load, err = strconv.ParseFloat(loadStr, 64); err != nil || j.Load < 0 {
			return w, fmt.Errorf("job %q: bad load %q", part, loadStr)
		}
		if j.Kind == "stencil" {
			dims := strings.Split(size, "x")
			if len(dims) != 3 {
				return w, fmt.Errorf("job %q: stencil size must be XxYxZ, got %q", part, size)
			}
			j.Tasks = 1
			for i, ds := range dims {
				v, err := strconv.Atoi(ds)
				if err != nil || v < 1 {
					return w, fmt.Errorf("job %q: bad stencil dimension %q", part, ds)
				}
				j.Dims[i] = v
				j.Tasks *= v
			}
		} else if j.Tasks, err = strconv.Atoi(size); err != nil || j.Tasks < 1 {
			return w, fmt.Errorf("job %q: bad size %q", part, size)
		}
		if len(fields) == 3 {
			from, to, ok := strings.Cut(fields[2], "-")
			if !ok {
				return w, fmt.Errorf("job %q: lifetime must be start-end, got %q", part, fields[2])
			}
			if j.Start, err = strconv.ParseInt(from, 10, 64); err != nil || j.Start < 0 {
				return w, fmt.Errorf("job %q: bad lifetime start %q", part, from)
			}
			if j.End, err = strconv.ParseInt(to, 10, 64); err != nil || j.End <= j.Start {
				return w, fmt.Errorf("job %q: bad lifetime end %q", part, to)
			}
		}
		w.Jobs = append(w.Jobs, j)
	}
	return w, nil
}

// Name returns the canonical identity string of the workload — used as the
// pattern component of sweep-service cache keys, so it must pin every knob
// that changes the traffic.
func (w Workload) Name() string {
	var b strings.Builder
	b.WriteString("JOBS[")
	for i, j := range w.Jobs {
		if i > 0 {
			b.WriteByte(',')
		}
		if j.Kind == "stencil" {
			fmt.Fprintf(&b, "%s:%dx%dx%d@%s", j.Kind, j.Dims[0], j.Dims[1], j.Dims[2],
				strconv.FormatFloat(j.Load, 'g', -1, 64))
		} else {
			fmt.Fprintf(&b, "%s:%d@%s", j.Kind, j.Tasks, strconv.FormatFloat(j.Load, 'g', -1, 64))
		}
		if j.Start != 0 || j.End > 0 {
			fmt.Fprintf(&b, ":%d-%d", j.Start, j.End)
		}
	}
	mapping := "linear"
	if w.RandomMap {
		mapping = "random"
	}
	fmt.Fprintf(&b, "|map=%s|bg=%s]", mapping, strconv.FormatFloat(w.Background, 'g', -1, 64))
	return b.String()
}

// generator builds the traffic.JobSet for this workload on a topology, with
// every load multiplied by scale (the sweep axis).
func (w Workload) generator(d *topology.Dragonfly, cfg Config, scale float64) (*traffic.JobSet, error) {
	jc := traffic.JobSetConfig{
		Mapping:    traffic.MapLinear,
		Background: w.Background * scale,
		Seed:       cfg.Seed,
		PacketSize: cfg.PacketSize,
	}
	if w.RandomMap {
		jc.Mapping = traffic.MapRandom
	}
	for _, j := range w.Jobs {
		kind, ok := jobKinds[j.Kind]
		if !ok {
			return nil, fmt.Errorf("workload: unknown job kind %q", j.Kind)
		}
		spec := traffic.JobSpec{
			Kind:  kind,
			Nodes: j.Tasks,
			Load:  j.Load * scale,
			Start: j.Start,
			End:   j.End,
			Dims:  j.Dims,
		}
		if kind == traffic.JobStencil && spec.Dims == [3]int{} {
			return nil, fmt.Errorf("workload: stencil job needs a task grid")
		}
		jc.Jobs = append(jc.Jobs, spec)
	}
	return traffic.NewJobSet(d, jc)
}

// JobResult is one job's share of a workload measurement.
type JobResult struct {
	Job        string  `json:"job"`
	Nodes      int     `json:"nodes"`
	Generated  int64   `json:"generated"`
	Delivered  int64   `json:"delivered"`
	Dropped    int64   `json:"dropped"`
	Measured   int64   `json:"measured"` // deliveries inside the window
	AvgLatency float64 `json:"avg_latency"`
	P50Latency float64 `json:"p50_latency"`
	P99Latency float64 `json:"p99_latency"`
	Throughput float64 `json:"throughput"` // phits/(node·cycle), job's own nodes
}

// JobsResult is a workload measurement: the familiar aggregate point plus
// one row per job (the background slot included when configured).
type JobsResult struct {
	Workload string       `json:"workload"`
	Scale    float64      `json:"scale"`
	Agg      SteadyResult `json:"agg"`
	Jobs     []JobResult  `json:"jobs"`
}

// collectJobs reads the per-job rows off a measured network.
func collectJobs(n *network.Network) []JobResult {
	now := n.Now()
	out := make([]JobResult, n.Stats.Jobs())
	for j := range out {
		gen, del, drop := n.Stats.JobCounts(j)
		out[j] = JobResult{
			Job:        n.Stats.JobName(j),
			Nodes:      n.Stats.JobNodes(j),
			Generated:  gen,
			Delivered:  del,
			Dropped:    drop,
			Measured:   n.Stats.JobMeasured(j),
			AvgLatency: n.Stats.JobAvgLatency(j),
			P50Latency: n.Stats.JobLatencyQuantile(j, 0.50),
			P99Latency: n.Stats.JobLatencyQuantile(j, 0.99),
			Throughput: n.Stats.JobThroughput(j, now),
		}
	}
	return out
}

// TraceRecord is one generated packet of a trace (see internal/trace).
type TraceRecord = trace.Record

// ReplayTrace re-injects a recorded (or external) trace through a fresh
// network and measures it with the standard steady-state window. A trace
// recorded by Resolved.Run (SweepOptions.Record) on the same Config
// reproduces the original run's grant digest bit-identically.
func ReplayTrace(cfg Config, recs []TraceRecord, warmup, measure int) (SteadyResult, uint64, error) {
	p := &point{cfg: cfg, warmup: warmup, digest: true,
		source: func(n *network.Network) (traffic.Generator, string, error) {
			// Every packet of a network is PacketSize phits: a record of
			// another size cannot be replayed as what it says.
			for i, rec := range recs {
				if int(rec.Size) != n.Cfg.PacketSize {
					return nil, "", fmt.Errorf("trace: record %d is a %d-phit packet, this network's packets are %d phits",
						i, rec.Size, n.Cfg.PacketSize)
				}
			}
			gen, err := traffic.NewTraceReplay(recs, n.Topo.Nodes)
			if err != nil {
				return nil, "", err
			}
			return gen, gen.Name(), nil
		}}
	res, err := p.run(measure)
	return res.SteadyResult, res.Digest, err
}

// SaveTrace writes records to path in the versioned binary format, stamped
// with this build's engine digest.
func SaveTrace(path string, recs []TraceRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, EngineDigest(), recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTrace reads a trace file, returning the records and the engine digest
// of the build that wrote it (zero for external producers). Callers that
// expect bit-identical replay should compare the digest to EngineDigest().
func LoadTrace(path string) ([]TraceRecord, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	engine, recs, err := trace.Read(f)
	return recs, engine, err
}
