package ofar

import (
	"bytes"
	"io"
	"os"

	"ofar/internal/network"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// point is one steady-state experiment point, the paper's §VI-A procedure:
// assemble the network, warm it up (or resume a warm snapshot), measure one
// window on it, close it. Every steady-state driver in this package is a
// point with its own traffic source and observers; run is the only place the
// procedure is written down.
type point struct {
	cfg    Config
	source func(*network.Network) (gen traffic.Generator, name string, err error)
	load   float64 // the sweep-axis value the result reports
	warmup int

	digest     bool                   // fold every grant into a digest
	rec        *trace.Recorder        // record every generated packet
	restore    string                 // warm-snapshot file to resume from, when usable
	checkpoint string                 // file for the warm snapshot, when warmed here
	phaseSink  func(PhaseNanos)       // receives the window's phase timing
	collect    func(*network.Network) // reads further rows off the measured network
}

// bernoulliPoint is the classic point: an open-loop Bernoulli source.
func bernoulliPoint(cfg Config, ps PatternSpec, load float64, warmup int) *point {
	return &point{cfg: cfg, load: load, warmup: warmup,
		source: func(n *network.Network) (traffic.Generator, string, error) {
			pattern := ps.build(n.Topo)
			return traffic.NewBernoulli(pattern, load, cfg.PacketSize), pattern.Name(), nil
		}}
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
// a point needs its warm state once, so nothing is forked. It reports whether
// the restore file replaced the warm-up, and the grant digest when on.
func (p *point) run(measure int) (res SteadyResult, restored bool, digest uint64, err error) {
	var (
		n    *network.Network
		name string
	)
	if p.restore != "" {
		if img, rerr := os.ReadFile(p.restore); rerr == nil {
			// A stale or corrupt entry (other physics, a truncated
			// write) is a cache miss: warm from cycle 0 below.
			n, name, err = p.warm(bytes.NewReader(img))
			restored = err == nil
		}
	}
	if !restored {
		if n, name, err = p.warm(nil); err == nil && p.checkpoint != "" {
			if err = writeWarmSnapshot(p.checkpoint, n); err != nil {
				n.Close()
			}
		}
		if err != nil {
			return res, false, 0, err
		}
	}
	defer n.Close()
	if p.phaseSink != nil {
		n.EnablePhaseTimings()
	}
	res, err = measureSteady(n, name, p.load, measure)
	if err == nil && p.phaseSink != nil {
		p.phaseSink(n.PhaseTimings())
	}
	if p.collect != nil {
		p.collect(n)
	}
	digest, _ = n.GrantDigest()
	return res, restored, digest, err
}
