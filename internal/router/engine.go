package router

import (
	"ofar/internal/packet"
	"ofar/internal/topology"
)

// Request is a routing engine's desired crossbar transfer for the packet at
// the head of one input VC: the output port, the downstream VC, and the
// header side effects to apply if (and only if) the request wins switch
// allocation.
type Request struct {
	Out int // output port
	VC  int // downstream VC index on that port

	Escape    bool // target VC belongs to the escape subnetwork
	EnterRing bool // canonical → ring transition (2-packet bubble was checked)
	ExitRing  bool // ring → canonical transition (counts against the exit budget)
	Ring      int8 // escape ring being entered/ridden (valid when Escape)

	SetGlobalMis bool // mark the packet's one-global-misroute flag
	SetLocalMis  bool // mark the packet's per-group local-misroute flag
}

// reqSlot is a Request packed into the router's reqs slab: ports and VCs
// are below 64 (Config.Validate), so each fits a byte, and the five flags
// share one, bit i for the i-th flag in Request's field order.
type reqSlot struct {
	out, vc uint8
	ring    int8
	flags   uint8
}

func packRequest(q Request) reqSlot {
	s := reqSlot{out: uint8(q.Out), vc: uint8(q.VC), ring: q.Ring}
	for i, b := range [...]bool{q.Escape, q.EnterRing, q.ExitRing, q.SetGlobalMis, q.SetLocalMis} {
		if b {
			s.flags |= 1 << i
		}
	}
	return s
}

func (s reqSlot) request() Request {
	bit := func(i int) bool { return s.flags>>i&1 != 0 }
	return Request{Out: int(s.out), VC: int(s.vc), Ring: s.ring,
		Escape: bit(0), EnterRing: bit(1), ExitRing: bit(2), SetGlobalMis: bit(3), SetLocalMis: bit(4)}
}

// InCtx describes the input buffer holding the packet a routing decision is
// being made for. The paper's OFAR policy distinguishes injection queues,
// local queues and escape channels (§IV-A).
type InCtx struct {
	Port, VC int
	Kind     topology.PortKind
	Escape   bool // the buffer is an escape-ring channel
	Ring     int  // escape ring index (-1 for canonical buffers)
}

// Engine is a routing mechanism. Route is invoked every cycle for every
// routable head-of-buffer packet ("the routing decision is revisited every
// cycle as long as the packet remains in the queue head", §V); it returns
// false when the packet must wait.
//
// Engines are stateless: one instance serves every router and every pool
// worker, and every call decides from scratch (minimal ports come from the
// topology's forwarding tables). What a Route call read is recorded on the
// router being routed — which output ports (NoteRead) and until when the
// decision holds (NoteExpiry); routers are group-owned, so the record is
// race-free — and the router's route cache replays the decision while
// nothing recorded has changed. A call that notes no expiry is never
// replayed.
type Engine interface {
	// AtInjection runs once when a packet is accepted into an injection
	// buffer; source-adaptive mechanisms decide minimal-vs-Valiant here.
	AtInjection(rt *Router, p *packet.Packet, now int64)

	// Route proposes an output for the head packet of the given input VC.
	Route(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool)
}

// Grant reports one committed crossbar transfer of a cycle.
type Grant struct {
	InPort, InVC int
	Req          Request
	Pkt          packet.Handle
	Eject        bool
}
