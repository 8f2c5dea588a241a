// Package router implements the microarchitecture of the simulated
// input-buffered virtual cut-through router used throughout the paper's
// evaluation (§V): per-VC input FIFOs counted in packets (every packet of a
// network has the same size, Params.PktSize phits), credit-based flow
// control with one credit per packet, an iterative separable batch
// allocator with least-recently-served arbiters, and the escape-channel
// bookkeeping needed by OFAR's deadlock-free subnetwork.
//
// The package also defines the Engine interface that routing mechanisms
// (MIN, VAL, PB, UGAL, OFAR) implement; engines receive the concrete
// *Router so the per-cycle hot path stays monomorphic.
package router

import (
	"ofar/internal/packet"
)

// VCBuffer is one virtual-channel FIFO of an input port, counted in packets;
// the packet at the head may additionally be "draining" (it won switch
// allocation and its phits are streaming out), during which it is not
// eligible for routing.
type VCBuffer struct {
	// Ring identifies the escape ring the buffer belongs to (a ring port's
	// VC or an embedded escape VC); -1 for canonical buffers.
	Ring     int8
	draining bool
	cOK      bool // route cache: the cached outcome, Route returned (request, true)

	Capacity int32 // packets (Config.Validate bounds every buffer)

	// q is a fixed-capacity ring of packet handles carved from the group
	// arena: n packets starting at slot head, wrapping at len(q). Credit flow
	// control keeps n below len(q) (see queueSlots), so the queue never
	// leaves its slab.
	q    []packet.Handle
	head int32
	n    int32

	// Route-cache entry for the current head packet (see Router.Cycle).
	// Valid while now < cExpire AND cMask (the decision's output-port read
	// set) is disjoint from the dirty window the router presents at
	// validation time; cExpire 0 marks no entry. The cached Request itself
	// lives in the router's reqs slot for this buffer (only a re-evaluation
	// of this buffer overwrites it).
	cMask   uint64
	cExpire int64
}

// invalidateCache forgets the route-cache entry. Called whenever the head
// packet changes identity.
func (b *VCBuffer) invalidateCache() { b.cExpire = 0 }

// Init sets the buffer capacity (packets). ring < 0 marks a canonical buffer.
func (b *VCBuffer) Init(capacity int, ring int) {
	b.Capacity = int32(capacity)
	b.Ring = int8(ring)
	clear(b.q)
	b.head, b.n = 0, 0
	b.draining = false
	b.invalidateCache()
}

// queueSlots is the ring size of a VC of the given capacity in packets: the
// packets that fit plus one slot of margin.
func queueSlots(capacity int) int { return capacity + 1 }

// Len returns the number of queued packets.
func (b *VCBuffer) Len() int { return int(b.n) }

// QueueSlots returns the ring's slot count: what NewInto carved, unless the
// queue ever grew off the arena. Test and diagnostics hook.
func (b *VCBuffer) QueueSlots() int { return len(b.q) }

// slot returns the ring index of the j-th queued packet (0 = head).
func (b *VCBuffer) slot(j int) int {
	if j += int(b.head); j >= len(b.q) {
		j -= len(b.q)
	}
	return j
}

// Free returns the room left, in packets.
func (b *VCBuffer) Free() int { return int(b.Capacity - b.n) }

// Head returns the head packet's handle; the buffer must not be empty. The
// head is not routable while the buffer is draining a previous grant.
func (b *VCBuffer) Head() packet.Handle { return b.q[b.head] }

// Draining reports whether the head packet is currently streaming out.
func (b *VCBuffer) Draining() bool { return b.draining }

// Push appends the packet h. The caller must have verified space;
// credit-based flow control guarantees it for network traffic, and sources
// check Free before injecting. Push panics on overflow because an overflow
// means a credit-accounting bug, not a runtime condition.
func (b *VCBuffer) Push(h packet.Handle) {
	if b.n >= b.Capacity {
		panic("router: VC buffer overflow (credit accounting bug)")
	}
	if b.n == 0 {
		b.invalidateCache() // the pushed packet becomes the head
	}
	if b.Len() == len(b.q) {
		// Genuinely full: only a buffer built without NewInto's sizing (a bare
		// test buffer, a hostile snapshot) gets here. Unroll onto the heap.
		grown := make([]packet.Handle, 2*b.n+2)
		for j := range b.Len() {
			grown[j] = b.q[b.slot(j)]
		}
		b.q, b.head = grown, 0
	}
	b.q[b.slot(b.Len())] = h
	b.n++
}

// DropQueued removes every queued packet except a draining head (whose
// phits are already committed to the crossbar and must finish via
// FinishDrain), calling visit for each removed packet.
// Used when a router fails: its buffered traffic is lost and must be
// accounted explicitly.
func (b *VCBuffer) DropQueued(visit func(packet.Handle)) {
	if b.n == 0 {
		return
	}
	b.invalidateCache()
	keep := 0
	if b.draining {
		keep = 1 // the in-flight head survives until its FinishDrain
	}
	for j := keep; j < b.Len(); j++ {
		visit(b.q[b.slot(j)])
	}
	b.n = int32(keep)
}

// BeginDrain marks the head as granted; it stays at the head (consuming
// space) until FinishDrain.
func (b *VCBuffer) BeginDrain() {
	if b.n == 0 || b.draining {
		panic("router: BeginDrain on empty or draining buffer")
	}
	b.draining = true
}

// FinishDrain removes the head packet and frees its space.
func (b *VCBuffer) FinishDrain() packet.Handle {
	if !b.draining {
		panic("router: FinishDrain without BeginDrain")
	}
	h := b.q[b.head]
	if b.head++; int(b.head) == len(b.q) {
		b.head = 0
	}
	b.n--
	b.draining = false
	b.invalidateCache() // whatever queued behind h is the new head
	return h
}
