package routing

import (
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// AdaptiveConfig tunes the source-adaptive mechanisms (PB and UGAL-L).
type AdaptiveConfig struct {
	// UgalT is the additive threshold T of the UGAL comparison
	// q_min·H_min > q_val·H_val + T (phits); a larger T biases toward
	// minimal routing.
	UgalT int

	// PBThreshold is the occupancy fraction above which a router marks one
	// of its global channels as congested in the piggybacked broadcast.
	PBThreshold float64

	// PBDelay is the intra-group broadcast delay in cycles (the flags seen
	// by a router are this old). Typically the local link latency.
	PBDelay int
}

// DefaultAdaptiveConfig mirrors the paper's setup: flags propagate with the
// local-link latency; the numeric thresholds were selected empirically (the
// paper reports performing the same kind of empirical threshold study).
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{UgalT: 0, PBThreshold: 0.30, PBDelay: 10}
}

// ugalDecision returns true when the packet should be routed non-minimally
// according to local queue state: compare source-router queue occupancies
// weighted by path lengths (UGAL-L, Kim et al.).
func ugalDecision(d *topology.Dragonfly, rt *router.Router, p *packet.Packet, vg int, cfg AdaptiveConfig) bool {
	minOut := d.MinimalPort(rt.ID, int(p.Dst))
	valOut := d.PortToGroup(rt.ID, vg)
	qMin := queuedPhits(rt, minOut)
	qVal := queuedPhits(rt, valOut)
	hMin := d.MinimalHops(int(p.Src), int(p.Dst))
	hVal := hMin + 2 // one extra global hop plus the intermediate local hop
	return qMin*hMin > qVal*hVal+cfg.UgalT
}

// queuedPhits estimates the backlog toward an output as the occupied phits
// of the downstream buffer: its packets (capacity minus credits) times the
// packet size, so AdaptiveConfig.UgalT stays in phits.
func queuedPhits(rt *router.Router, port int) int {
	op := &rt.Out[port]
	q := 0
	for vc := 0; vc < op.NumVCs(); vc++ {
		if op.EscapeRing(vc) < 0 {
			q += op.VCCap(vc) - op.Credits(vc)
		}
	}
	return q * rt.PktSize
}

// UGAL is the UGAL-L mechanism (local information only): an extension
// baseline beyond the paper's evaluated set, listed in DESIGN.md.
type UGAL struct {
	d   *topology.Dragonfly
	cfg AdaptiveConfig
}

// NewUGAL returns a UGAL-L engine.
func NewUGAL(d *topology.Dragonfly, cfg AdaptiveConfig) *UGAL {
	return &UGAL{d: d, cfg: cfg}
}

// AtInjection implements router.Engine.
func (e *UGAL) AtInjection(rt *router.Router, p *packet.Packet, _ int64) {
	if p.DstGroup == p.SrcGroup {
		return // minimal within the group
	}
	vg := pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup))
	if vg < 0 {
		return
	}
	if ugalDecision(e.d, rt, p, vg, e.cfg) {
		p.ValiantGroup = int16(vg)
	}
}

// Route implements router.Engine. UGAL's adaptivity lives entirely in
// AtInjection; in transit it is a fixed-path engine.
func (e *UGAL) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, p, now)
}

// PB is the Piggybacking mechanism (Jiang et al., ISCA 2009): UGAL-L
// augmented with global-channel congestion flags broadcast within each
// group, so the injection router knows whether the minimal path's global
// channel — possibly attached to another router of its group — is
// saturated.
type PB struct {
	d   *topology.Dragonfly
	cfg AdaptiveConfig
}

// NewPB returns a PB engine.
func NewPB(d *topology.Dragonfly, cfg AdaptiveConfig) *PB {
	return &PB{d: d, cfg: cfg}
}

// AtInjection implements router.Engine.
func (e *PB) AtInjection(rt *router.Router, p *packet.Packet, now int64) {
	if p.DstGroup == p.SrcGroup {
		return // minimal within the group
	}
	vg := pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup))
	if vg < 0 {
		return
	}
	minLink := e.d.GlobalLinkOf(int(p.SrcGroup), int(p.DstGroup))
	valLink := e.d.GlobalLinkOf(int(p.SrcGroup), vg)
	flagMin := rt.PBFlag(minLink, now)
	flagVal := rt.PBFlag(valLink, now)
	switch {
	case flagMin && !flagVal:
		p.ValiantGroup = int16(vg)
	case flagMin && flagVal:
		// both candidate global channels congested: stay minimal rather
		// than doubling the load on an equally congested path
	default:
		if ugalDecision(e.d, rt, p, vg, e.cfg) {
			p.ValiantGroup = int16(vg)
		}
	}
}

// Route implements router.Engine. PB reads its congestion flags only at
// injection time, never here, so the delayed FlagBoard view is in no read
// set — in transit PB is a fixed-path engine.
func (e *PB) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, p, now)
}
