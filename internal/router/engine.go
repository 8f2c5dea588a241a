package router

import (
	"ofar/internal/packet"
	"ofar/internal/topology"
)

// Request is a routing engine's desired crossbar transfer for the packet at
// the head of one input VC: the output port, the downstream VC, and the
// header side effects to apply if (and only if) the request wins switch
// allocation. Ports and VCs are below 64 (Config.Validate), so the whole
// request is one 4-byte record: the router stores it as returned in its
// reqs slab and replays it from there.
type Request struct {
	Out   uint8    // output port
	VC    uint8    // downstream VC index on that port
	Ring  int8     // escape ring being entered/ridden (valid with Escape)
	Flags ReqFlags // header side effects
}

// ReqFlags is a Request's set of header side effects.
type ReqFlags uint8

const (
	Escape       ReqFlags = 1 << iota // target VC belongs to the escape subnetwork
	EnterRing                         // canonical → ring transition (2-packet bubble was checked)
	ExitRing                          // ring → canonical transition (counts against the exit budget)
	SetGlobalMis                      // mark the packet's one-global-misroute flag
	SetLocalMis                       // mark the packet's per-group local-misroute flag
)

// Has reports whether every flag of f is set.
func (q Request) Has(f ReqFlags) bool { return q.Flags&f == f }

// InCtx describes the input buffer holding the packet a routing decision is
// being made for. The paper's OFAR policy distinguishes injection queues,
// local queues and escape channels (§IV-A).
type InCtx struct {
	Port, VC int
	Kind     topology.PortKind
	Ring     int // escape ring of an escape-ring channel; -1 for canonical buffers
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
