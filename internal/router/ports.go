package router

import (
	"ofar/internal/topology"
)

// InPort is one input port of the router with its virtual-channel buffers.
type InPort struct {
	Kind topology.PortKind
	VCs  []VCBuffer

	// UpRouter/UpPort identify the upstream output port feeding this input,
	// used to return credits; both are -1 for injection ports.
	UpRouter int
	UpPort   int

	// busyUntil gates the port's 1 phit/cycle crossbar bandwidth: while a
	// packet drains, no other VC of the port can be granted.
	busyUntil int64

	// ready is the bitset form of the routable-head predicate: bit vc is set
	// iff VCs[vc] is non-empty and not draining. It is maintained at exactly
	// the sites that maintain Router.readyVCs, so popcount(ready) summed over
	// ports always equals readyVCs. Cycle iterates set bits instead of
	// scanning every VC.
	ready uint64
}

// Busy reports whether the port is still streaming a previous grant.
func (ip *InPort) Busy(now int64) bool { return ip.busyUntil > now }

// ReadyMask returns the routable-head bitset (bit vc set iff VCs[vc] holds a
// routable head). Test and diagnostics hook.
func (ip *InPort) ReadyMask() uint64 { return ip.ready }

// OutPort is one output port with per-VC credit counters mirroring the free
// space of the downstream input buffer.
type OutPort struct {
	Kind topology.PortKind

	// Peer/PeerPort identify the downstream router input; both are -1 for
	// ejection (node) ports.
	Peer     int
	PeerPort int

	// Latency is the link traversal latency in cycles.
	Latency int

	credits []int
	vcCap   []int
	// escRing maps each VC to the escape ring it belongs to, or -1 for
	// canonical VCs.
	escRing []int8

	busyUntil int64

	// dead marks a failed link: a dead port is permanently Busy, so no
	// allocator or engine ever grants it again. Credits are frozen as-is.
	dead bool

	// canonical aggregates for the occupancy percentage used by adaptive
	// routing thresholds (escape VCs excluded).
	canCap     int
	canCredits int
}

// initOut sets up the credit state. caps lists per-VC capacities; escRing
// tags escape VCs (-1 = canonical; nil = all canonical). The persistent
// per-VC arrays are carved from ar.
func (op *OutPort) initOut(ar *Arena, caps, escRing []int) {
	op.credits = ar.Ints(len(caps))
	copy(op.credits, caps)
	op.vcCap = ar.Ints(len(caps))
	copy(op.vcCap, caps)
	op.escRing = ar.Int8s(len(caps))
	op.canCap, op.canCredits = 0, 0
	for vc, c := range caps {
		op.escRing[vc] = -1
		if escRing != nil {
			op.escRing[vc] = int8(escRing[vc])
		}
		if op.escRing[vc] < 0 {
			op.canCap += c
			op.canCredits += c
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

// Fail marks the link behind this port as failed.
func (op *OutPort) Fail() { op.dead = true }

// SetCredits overwrites one VC's credit counter during structural surgery
// (escape-ring re-formation retargets a port to a new downstream buffer and
// must re-derive its free space). Maintains the canonical aggregate.
func (op *OutPort) SetCredits(vc, credits int) {
	if credits < 0 || credits > op.vcCap[vc] {
		panic("router: SetCredits outside [0, cap]")
	}
	if op.escRing[vc] < 0 {
		op.canCredits += credits - op.credits[vc]
	}
	op.credits[vc] = credits
}

// NumVCs returns the number of downstream VCs.
func (op *OutPort) NumVCs() int { return len(op.credits) }

// Credits returns the credit count of one VC.
func (op *OutPort) Credits(vc int) int { return op.credits[vc] }

// VCCap returns the capacity of one downstream VC.
func (op *OutPort) VCCap(vc int) int { return op.vcCap[vc] }

// ClassVC is the hop-class VC rule every engine shares: the downstream VC is
// the number of hops already taken, clamped to the port's VC count, and
// ejection uses VC 0. The baselines and OFAR count global hops (locals
// 0,1,2; globals 0,1); PAR counts local hops on local ports, which is why it
// provisions a fourth local VC.
func (op *OutPort) ClassVC(hops int) int {
	if op.Kind == topology.PortNode {
		return 0
	}
	return min(hops, len(op.credits)-1)
}

// EscapeRing returns the escape-ring index of a VC, or -1 for canonical VCs.
func (op *OutPort) EscapeRing(vc int) int { return int(op.escRing[vc]) }

// Occupancy returns the canonical downstream occupancy as a fraction in
// [0,1], the quantity compared against misrouting thresholds (paper §IV-B
// uses percentages because local and global buffers differ in size).
func (op *OutPort) Occupancy() float64 {
	if op.canCap == 0 {
		return 0
	}
	return 1 - float64(op.canCredits)/float64(op.canCap)
}

// Take consumes credits for a departing packet.
func (op *OutPort) Take(vc, size int) {
	if op.credits[vc] < size {
		panic("router: credit underflow")
	}
	op.credits[vc] -= size
	if op.escRing[vc] < 0 {
		op.canCredits -= size
	}
}

// Refund returns credits after the downstream buffer frees the space.
func (op *OutPort) Refund(vc, size int) {
	op.credits[vc] += size
	if op.escRing[vc] < 0 {
		op.canCredits += size
	}
	if op.credits[vc] > op.vcCap[vc] {
		panic("router: credit overflow")
	}
}

// bestEscapeVC returns the VC of the given escape ring with the most
// credits (no size requirement; bubble checks are the caller's business).
func (op *OutPort) bestEscapeVC(ring int) (int, bool) {
	best, bestCr := -1, -1
	for vc := range op.credits {
		if int(op.escRing[vc]) != ring {
			continue
		}
		if cr := op.credits[vc]; cr > bestCr {
			best, bestCr = vc, cr
		}
	}
	return best, best >= 0
}
