package routing

import (
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// PAR implements Progressive Adaptive Routing (Jiang et al., ISCA 2009),
// discussed in the paper's §I/§II: the minimal-vs-Valiant decision is
// re-evaluated at every router of the source group (not only at injection),
// which allows up to two local hops in the source group. Deadlock freedom
// still comes from an ascending VC order, which therefore needs one extra
// local VC: local hops use VC = number of local hops already taken
// (0..3), global hops use VC = global hops taken (0..1). Configurations
// running PAR must provision 4 local VCs.
// Its initial decision, at injection, is UGAL-L's: PAR embeds UGAL for
// AtInjection and overrides Route.
type PAR struct {
	UGAL
}

// NewPAR returns a PAR engine.
func NewPAR(d *topology.Dragonfly, cfg AdaptiveConfig) *PAR {
	return &PAR{UGAL{d: d, cfg: cfg}}
}

// Route implements router.Engine. While the packet is still in its source
// group and committed to the minimal path, the decision is revisited with
// the local queue state of the *current* router; switching to Valiant
// mid-group is what distinguishes PAR from UGAL/PB. It notes no expiry, so
// the route cache never replays it: the decision reads queue state it does
// not record and may rewrite the header.
func (e *PAR) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	if in.Kind == topology.PortLocal && // re-evaluation point: after a local hop
		rt.Group == int(p.SrcGroup) &&
		p.ValiantGroup < 0 &&
		p.DstGroup != p.SrcGroup &&
		p.GlobalHops == 0 {
		vg := pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup))
		if vg >= 0 && ugalDecision(e.d, rt, p, vg, e.cfg) {
			p.ValiantGroup = int16(vg) // in-transit divert (PAR's defining move)
		}
	}
	out := nextOut(e.d, rt.ID, p)
	op := &rt.Out[out]
	vc := op.ClassVC(parHops(op.Kind, p))
	if op.Busy(now) || op.Kind != topology.PortNode && op.Credits(vc) < 1 {
		return router.Request{}, false
	}
	return router.Request{Out: uint8(out), VC: uint8(vc)}, true
}

// parHops is the hop count PAR's ascending discipline classes a hop on a
// port of the given kind by: local hops consume one VC each in order (the
// extra source-group hop is why PAR needs 4 local VCs), globals use the
// shared 2-VC global order.
func parHops(kind topology.PortKind, p *packet.Packet) int {
	if kind == topology.PortLocal {
		return int(p.LocalHops)
	}
	return int(p.GlobalHops)
}
