package router

import (
	"ofar/internal/topology"
)

// InPort is one input port of the router with its virtual-channel buffers.
type InPort struct {
	VCs []VCBuffer

	// busyUntil gates the port's 1 phit/cycle crossbar bandwidth: while a
	// packet drains, no other VC of the port can be granted.
	busyUntil int64

	// ready is the bitset form of the routable-head predicate: bit vc is set
	// iff VCs[vc] is non-empty and not draining. It is maintained at exactly
	// the sites that maintain Router.readyPorts, whose bit for this port is
	// set iff ready != 0. Cycle iterates set bits instead of scanning every
	// VC.
	ready uint64

	// UpRouter/UpPort identify the upstream output port feeding this input,
	// used to return credits; both are -1 for injection ports.
	UpRouter int32
	UpPort   int16

	Kind topology.PortKind
}

// Busy reports whether the port is still streaming a previous grant.
func (ip *InPort) Busy(now int64) bool { return ip.busyUntil > now }

// ReadyMask returns the routable-head bitset (bit vc set iff VCs[vc] holds a
// routable head). Test and diagnostics hook.
func (ip *InPort) ReadyMask() uint64 { return ip.ready }

// OutPort is one output port with per-VC credit counters mirroring the free
// space of the downstream input buffer: one credit per packet.
type OutPort struct {
	// vcs holds each downstream VC's credits, capacity and escape ring.
	vcs []outVC

	busyUntil int64

	// Peer/PeerPort identify the downstream router input; both are -1 for
	// ejection (node) ports.
	Peer     int32
	PeerPort int16

	Kind topology.PortKind

	// dead marks a failed link: a dead port is permanently Busy, so no
	// allocator or engine ever grants it again. Credits are frozen as-is.
	dead bool

	// Latency is the link traversal latency in cycles.
	Latency int32

	// canonical aggregates for the occupancy percentage used by adaptive
	// routing thresholds (escape VCs excluded).
	canCap     int32
	canCredits int32
}

// outVC is one downstream VC as its output port sees it. Config.Validate
// bounds every buffer, so the counters fit 32 bits.
type outVC struct {
	credits int32
	cap     int32
	// ring is the escape ring the VC belongs to, or -1 for canonical VCs.
	ring int8
}

// initOut sets up the credit state. caps lists per-VC capacities; escRing
// tags escape VCs (-1 = canonical; nil = all canonical). The per-VC records
// are carved from ar.
func (op *OutPort) initOut(ar *Arena, caps, escRing []int) {
	op.vcs = carve(ar, &ar.outVCs, len(caps))
	op.canCap, op.canCredits = 0, 0
	for vc, c := range caps {
		v := &op.vcs[vc]
		v.credits, v.cap, v.ring = int32(c), int32(c), -1
		if escRing != nil {
			v.ring = int8(escRing[vc])
		}
		if v.ring < 0 {
			op.canCap += v.cap
			op.canCredits += v.cap
		}
	}
}

// Busy reports whether the port is still serializing a previous grant.
// Dead ports are permanently busy: every grant path — engine VC selection,
// allocator arbitration, escape-ring advance — already consults Busy, so
// folding liveness in here is what keeps dead links unreachable everywhere.
func (op *OutPort) Busy(now int64) bool { return op.dead || op.busyUntil > now }

// Dead reports whether the link behind this port has failed.
func (op *OutPort) Dead() bool { return op.dead }

// SetCredits overwrites one VC's credit counter during structural surgery
// (escape-ring re-formation retargets a port to a new downstream buffer and
// must re-derive its free space). Maintains the canonical aggregate.
func (op *OutPort) SetCredits(vc, credits int) {
	v := &op.vcs[vc]
	if credits < 0 || credits > int(v.cap) {
		panic("router: SetCredits outside [0, cap]")
	}
	if v.ring < 0 {
		op.canCredits += int32(credits) - v.credits
	}
	v.credits = int32(credits)
}

// NumVCs returns the number of downstream VCs.
func (op *OutPort) NumVCs() int { return len(op.vcs) }

// Credits returns the credit count of one VC.
func (op *OutPort) Credits(vc int) int { return int(op.vcs[vc].credits) }

// VCCap returns the capacity of one downstream VC.
func (op *OutPort) VCCap(vc int) int { return int(op.vcs[vc].cap) }

// ClassVC is the hop-class VC rule every engine shares: the downstream VC is
// the number of hops already taken, clamped to the port's VC count, and
// ejection uses VC 0. The baselines and OFAR count global hops (locals
// 0,1,2; globals 0,1); PAR counts local hops on local ports, which is why it
// provisions a fourth local VC.
func (op *OutPort) ClassVC(hops int) int {
	if op.Kind == topology.PortNode {
		return 0
	}
	return min(hops, len(op.vcs)-1)
}

// EscapeRing returns the escape-ring index of a VC, or -1 for canonical VCs.
func (op *OutPort) EscapeRing(vc int) int { return int(op.vcs[vc].ring) }

// Occupancy returns the canonical downstream occupancy as a fraction in
// [0,1], the quantity compared against misrouting thresholds (paper §IV-B
// uses percentages because local and global buffers differ in size).
func (op *OutPort) Occupancy() float64 {
	if op.canCap == 0 {
		return 0
	}
	return 1 - float64(op.canCredits)/float64(op.canCap)
}

// Take consumes the credit of a departing packet.
func (op *OutPort) Take(vc int) {
	v := &op.vcs[vc]
	if v.credits < 1 {
		panic("router: credit underflow")
	}
	v.credits--
	if v.ring < 0 {
		op.canCredits--
	}
}

// Refund returns a packet's credit after the downstream buffer frees its
// space.
func (op *OutPort) Refund(vc int) {
	v := &op.vcs[vc]
	if v.credits >= v.cap {
		panic("router: credit overflow")
	}
	v.credits++
	if v.ring < 0 {
		op.canCredits++
	}
}

// bestEscapeVC returns the VC of the given escape ring with the most
// credits (no credit requirement; bubble checks are the caller's business).
func (op *OutPort) bestEscapeVC(ring int) (int, bool) {
	best, bestCr := -1, int32(-1)
	for vc := range op.vcs {
		if v := &op.vcs[vc]; int(v.ring) == ring && v.credits > bestCr {
			best, bestCr = vc, v.credits
		}
	}
	return best, best >= 0
}
