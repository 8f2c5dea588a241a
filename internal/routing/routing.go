// Package routing implements the baseline routing mechanisms the paper
// evaluates against OFAR (§V): minimal routing (MIN), Valiant randomized
// routing (VAL), Piggybacking (PB) and — as an extension — UGAL-L. All of
// them decide minimal-vs-nonminimal at injection time and prevent deadlock
// with an ascending virtual-channel order (3 VCs on local links and
// injection queues, 2 on global links).
package routing

import (
	"math"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// nextOut returns the output port on the committed path of a baseline
// packet: toward the Valiant intermediate group while one is pending,
// minimal afterwards.
func nextOut(d *topology.Dragonfly, r int, p *packet.Packet) int {
	if p.ValiantGroup >= 0 && d.GroupOf(r) != int(p.ValiantGroup) {
		return d.PortToGroup(r, int(p.ValiantGroup))
	}
	return d.MinimalPort(r, int(p.Dst))
}

// routeFixed implements Route for every baseline: follow the committed path,
// wait when the required port/VC cannot accept the packet. Each call looks
// the committed port up in the topology's tables; the decision reads only
// that port and time cannot change it.
func routeFixed(d *topology.Dragonfly, rt *router.Router, p *packet.Packet, now int64) (router.Request, bool) {
	out := nextOut(d, rt.ID, p)
	rt.NoteRead(out)
	rt.NoteExpiry(math.MaxInt64)
	if rt.OutBusy(out, now) {
		return router.Request{}, false
	}
	vc := rt.Out[out].ClassVC(int(p.GlobalHops))
	if !rt.VCFits(out, vc) {
		return router.Request{}, false
	}
	return router.Request{Out: out, VC: vc}, true
}

// pickIntermediate selects a random intermediate group different from both
// the source and destination groups; it returns -1 when the network has no
// third group.
func pickIntermediate(d *topology.Dragonfly, rt *router.Router, src, dst int) int {
	if d.G < 3 {
		return -1
	}
	if src == dst { // intra-group traffic: exclude only one group
		vg := rt.RandInt(d.G - 1)
		if vg >= src {
			vg++
		}
		return vg
	}
	vg := rt.RandInt(d.G - 2)
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	if vg >= lo {
		vg++
	}
	if vg >= hi {
		vg++
	}
	return vg
}

// Minimal is the MIN mechanism: always the shortest path.
type Minimal struct{ d *topology.Dragonfly }

// NewMinimal returns a MIN engine.
func NewMinimal(d *topology.Dragonfly) *Minimal { return &Minimal{d: d} }

// AtInjection implements router.Engine.
func (e *Minimal) AtInjection(*router.Router, *packet.Packet, int64) {}

// Route implements router.Engine.
func (e *Minimal) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, p, now)
}

// Valiant is the VAL mechanism: every packet visits a random intermediate
// group before traveling minimally to its destination.
type Valiant struct{ d *topology.Dragonfly }

// NewValiant returns a VAL engine.
func NewValiant(d *topology.Dragonfly) *Valiant { return &Valiant{d: d} }

// AtInjection implements router.Engine.
func (e *Valiant) AtInjection(rt *router.Router, p *packet.Packet, _ int64) {
	p.ValiantGroup = int16(pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup)))
}

// Route implements router.Engine.
func (e *Valiant) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, p, now)
}
