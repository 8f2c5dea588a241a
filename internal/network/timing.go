package network

import "time"

// PhaseNanos is the per-phase wall-clock breakdown of the simulation,
// accumulated when EnablePhaseTimings is on: fault application, event
// delivery, traffic generation/injection, PB flag publication, and the
// router stage — each including the share of the window merge that serves
// it. The fields add up to the wall time spent in Run.
type PhaseNanos struct {
	Faults   int64 `json:"faults_ns"`
	Events   int64 `json:"events_ns"`
	Generate int64 `json:"generate_ns"`
	PB       int64 `json:"pb_ns"`
	Routers  int64 `json:"routers_ns"`
	Cycles   int64 `json:"cycles"` // cycles accumulated into the fields above
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

// EnablePhaseTimings turns on per-phase timing: a few clock reads per window
// plus a handful per group on sampled cycles (see clock) — measurable against
// a 5 µs low-load h=3 cycle, hence opt-in. It never affects results.
func (n *Network) EnablePhaseTimings() { n.timingOn = true }

// PhaseTimings returns the accumulated per-phase breakdown (zero unless
// EnablePhaseTimings was called).
func (n *Network) PhaseTimings() PhaseNanos { return n.phaseNs }

// clock starts the laps of one group cycle (or one merged cycle): a tick on
// sampled cycles while timing is on, 0 — no laps — otherwise. Each lap costs
// a clock read per group and phase, so one cycle in lapEvery is lapped,
// keeping timing's cost near one read per phase and cycle at any size.
func (n *Network) clock(now int64) int64 {
	if n.timingOn && now%lapEvery == 0 {
		return ticks()
	}
	return 0
}

const lapEvery = 16

// epoch anchors ticks: monotonic ns since, never 0; out of line so lap inlines.
var epoch = time.Now()

//go:noinline
func ticks() int64 { return int64(time.Since(epoch)) + 1 }

// lap adds the time since tick t to *dst and returns the new lap start; a
// zero t does nothing.
func lap(dst *int64, t int64) int64 {
	if t == 0 {
		return 0
	}
	u := ticks()
	*dst += u - t
	return u
}

// spreadLaps charges the wall time since tick t — a window after its faults
// — to the phases in the proportions of every lap sampled so far: sampled
// cycles only, and concurrent on the pool, the laps measure shares, not time.
func (n *Network) spreadLaps(t int64, cycles int) {
	for g := range n.gs {
		n.laps.Add(n.gs[g].ph)
		n.gs[g].ph = PhaseNanos{}
	}
	wall, l := ticks()-t, n.laps
	if sum := l.Events + l.Generate + l.PB + l.Routers; sum > 0 {
		f := float64(wall) / float64(sum)
		ev, gen, pb := int64(f*float64(l.Events)), int64(f*float64(l.Generate)), int64(f*float64(l.PB))
		n.phaseNs.Events += ev
		n.phaseNs.Generate += gen
		n.phaseNs.PB += pb
		wall -= ev + gen + pb
	}
	n.phaseNs.Routers += wall
	n.phaseNs.Cycles += int64(cycles)
}
