package network

import "time"

// PhaseNanos is the per-phase wall-clock breakdown of Step, accumulated when
// EnablePhaseTimings is on: fault application, event delivery (wheel advance
// + processDue), traffic generation/injection, PB flag publication, and the
// router stage. The sum of the fields is the full Step time minus the
// (sub-microsecond) inter-phase bookkeeping.
type PhaseNanos struct {
	Faults   int64 `json:"faults_ns"`
	Events   int64 `json:"events_ns"`
	Generate int64 `json:"generate_ns"`
	PB       int64 `json:"pb_ns"`
	Routers  int64 `json:"routers_ns"`
	Cycles   int64 `json:"cycles"` // Steps accumulated into the fields above
}

// Add accumulates another breakdown into this one (benchmark folding, the
// sweep service's cross-run gauges).
func (p *PhaseNanos) Add(o PhaseNanos) {
	p.Faults += o.Faults
	p.Events += o.Events
	p.Generate += o.Generate
	p.PB += o.PB
	p.Routers += o.Routers
	p.Cycles += o.Cycles
}

// EnablePhaseTimings turns on per-phase Step timing. Off by default: the
// check costs a branch per phase, while timing pays a handful of monotonic
// clock reads per cycle (~100 ns total — noise at h≥3 scale, but
// measurable against a 5 µs low-load h=3 step, which is why it is opt-in
// rather than always-on). Timing never affects simulation results.
func (n *Network) EnablePhaseTimings() { n.timingOn = true }

// PhaseTimings returns the accumulated per-phase breakdown (zero unless
// EnablePhaseTimings was called).
func (n *Network) PhaseTimings() PhaseNanos { return n.phaseNs }

// lap accumulates the time since t into *dst and returns the new lap start;
// with timing off it does nothing.
func (n *Network) lap(dst *int64, t time.Time) time.Time {
	if !n.timingOn {
		return t
	}
	u := time.Now()
	*dst += u.Sub(t).Nanoseconds()
	return u
}
