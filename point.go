package ofar

import (
	"bytes"
	"io"
	"os"
	"path/filepath"

	"ofar/internal/network"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// PointResult is one measured point of an experiment: the steady-state row
// plus what the point's SweepOptions asked for. For a job set the embedded
// row is the aggregate, its Pattern the workload's canonical name and its
// Load the scale. A transient or burst point carries its section's result
// instead, and a zero steady-state row.
type PointResult struct {
	SteadyResult
	Jobs      []JobResult      // per-job rows of a job-set point (the background slot included)
	Transient *TransientResult // the latency series of a transient point
	Burst     *BurstResult     // the row of a burst point
	Restored  bool             // the warm state came from SweepOptions.RestoreDir
	Digest    uint64           // grant digest of the whole run, when recording
	Trace     []TraceRecord    // every generated packet, when recording
}

// Run measures one point of the experiment, the paper's §VI-A procedure:
// r.Warmup cycles of warm-up (or a usable warm snapshot from opt.RestoreDir
// instead), then one r.Measure-cycle window on the warm network itself. load
// is the offered load of a pattern experiment and the scale factor on every
// job (and the background) of a job set. With opt.CheckpointDir set, a point
// that warmed writes its snapshot there before measuring; the file name pins
// (configuration, pattern, load, warm-up), so a stale or missing entry just
// warms again. The row is the same however the warm state was reached.
//
// A transient or burst point runs its section's shape from cycle 0 instead
// and ignores opt: it has no warm state to cache or resume, and no window to
// time or record.
func (r Resolved) Run(load float64, opt SweepOptions) (PointResult, error) {
	switch {
	case r.Transient != nil:
		t, err := r.runTransient(load)
		return PointResult{Transient: &t}, err
	case r.Burst != nil:
		b, err := r.runBurst()
		return PointResult{Burst: &b}, err
	}
	p := r.point(load)
	p.phaseSink = opt.PhaseSink
	if opt.Record {
		p.digest, p.rec = true, &trace.Recorder{}
	}
	if opt.RestoreDir != "" || opt.CheckpointDir != "" {
		name, err := warmSnapshotName(r.Config, r.PatternName(), load, r.Warmup)
		if err != nil {
			return PointResult{}, err
		}
		// A recording never restores: its trace must start at cycle 0.
		if opt.RestoreDir != "" && !opt.Record {
			p.restore = filepath.Join(opt.RestoreDir, name)
		}
		if opt.CheckpointDir != "" {
			p.checkpoint = filepath.Join(opt.CheckpointDir, name)
		}
	}
	return p.run(r.Measure)
}

// point is one steady-state experiment point: assemble the network, warm it
// up (or resume a warm snapshot), measure one window on it, close it.
// Resolved.Run, Warm and ReplayTrace build one; run is the only place the
// procedure is written down.
type point struct {
	cfg    Config
	source func(*network.Network) (gen traffic.Generator, name string, err error)
	load   float64 // the sweep-axis value the result reports
	warmup int

	digest     bool             // fold every grant into a digest
	rec        *trace.Recorder  // record every generated packet
	restore    string           // warm-snapshot file to resume from, when usable
	checkpoint string           // file for the warm snapshot, when warmed here
	phaseSink  func(PhaseNanos) // receives the window's phase timing
}

// point is r's point at load: an open-loop Bernoulli source for a pattern,
// the job set with every load scaled by load otherwise.
func (r Resolved) point(load float64) *point {
	p := &point{cfg: r.Config, load: load, warmup: r.Warmup}
	if w := r.Jobs; w != nil {
		p.source = func(n *network.Network) (traffic.Generator, string, error) {
			gen, err := w.generator(n.Topo, r.Config, load)
			return gen, w.Name(), err
		}
	} else {
		p.source = func(n *network.Network) (traffic.Generator, string, error) {
			pattern := r.Pattern.build(n.Topo)
			return traffic.NewBernoulli(pattern, load, r.Config.PacketSize), pattern.Name(), nil
		}
	}
	return p
}

// warm returns the network parked at the end of warm-up with the source and
// observers attached: restored from snap when non-nil (the image carries the
// histogram and every RNG position), simulated from cycle 0 otherwise.
func (p *point) warm(snap io.Reader) (*network.Network, string, error) {
	n, err := network.New(p.cfg)
	if err != nil {
		return nil, "", err
	}
	gen, name, err := p.source(n)
	if err == nil {
		n.SetGenerator(gen)
		n.Stats.EnableHistogram()
		if p.digest {
			n.EnableGrantDigest()
		}
		if p.rec != nil {
			n.SetTraceRecorder(p.rec)
		}
		if snap == nil {
			n.Run(p.warmup)
		} else {
			err = n.Restore(snap)
		}
	}
	if err != nil {
		n.Close()
		return nil, "", err
	}
	return n, name, nil
}

// run executes the point. The window is measured on the warm network itself:
// a point needs its warm state once, so nothing is forked.
func (p *point) run(measure int) (res PointResult, err error) {
	var (
		n    *network.Network
		name string
	)
	if p.restore != "" {
		if img, rerr := os.ReadFile(p.restore); rerr == nil {
			// A stale or corrupt entry (other physics, a truncated
			// write) is a cache miss: warm from cycle 0 below.
			n, name, err = p.warm(bytes.NewReader(img))
			res.Restored = err == nil
		}
	}
	if !res.Restored {
		if n, name, err = p.warm(nil); err == nil && p.checkpoint != "" {
			if err = writeWarmSnapshot(p.checkpoint, n); err != nil {
				n.Close()
			}
		}
		if err != nil {
			return res, err
		}
	}
	defer n.Close()
	if p.phaseSink != nil {
		n.EnablePhaseTimings()
	}
	res.SteadyResult, err = measureSteady(n, name, p.load, measure)
	if err == nil && p.phaseSink != nil {
		p.phaseSink(n.PhaseTimings())
	}
	if n.Stats.Jobs() > 0 {
		res.Jobs = collectJobs(n)
	}
	if p.digest {
		res.Digest, _ = n.GrantDigest()
	}
	if p.rec != nil {
		res.Trace = p.rec.Records()
	}
	return res, err
}
