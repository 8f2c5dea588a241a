package router

import (
	"unsafe"

	"ofar/internal/packet"
)

// Arena is a typed bump allocator for router hot state. The network builds
// one arena per dragonfly group and constructs the group's routers into it,
// so every slice the per-cycle loops touch — VC buffer entries (including
// their route-cache fields), per-VC credit records, arbiter rank rows,
// request slots, ready/dirty masks, queue handle rings — lands in a
// handful of large contiguous slabs owned by that group instead of hundreds
// of individually heap-allocated slices scattered by the allocator.
//
// The layout is struct-of-arrays at the group level: all VCBuffer entries of
// a group share one slab (allocated router-major, port-major, so the
// iteration order of Cycle and handle is a forward walk), all credit arrays
// share another, and so on per type. A group's working set is therefore
// cache- and TLB-dense, which is what makes the group the natural ownership
// unit of the network's lookahead windows (see network.Network.Run), which
// walk one group for many cycles while this state stays cache-hot.
//
// Allocation is append-only and exact-fit: the network sums what a group's
// routers will carve (ArenaSize.Add mirrors NewInto),
// NewArena allocates each typed slab once at exactly that size, and
// construction consumes it to the last element. Routers never free, and
// fault surgery only rewrites in place. The zero Arena is valid and spills
// every request to plain make: bare test routers (Params.Arena nil) get one.
type Arena struct {
	u8     []uint8
	i32    []int32
	u64    []uint64
	vcs    []VCBuffer
	outVCs []outVC
	reqs   []Request
	inP    []InPort
	outP   []OutPort
	pkts   []packet.Handle

	// Size is what NewArena allocated; Slack counts the elements not carved
	// (yet), Spill those requested beyond a slab and served off-arena by plain
	// make. Diagnostics: construction ends with both at zero.
	Size         ArenaSize
	Slack, Spill int
}

// ArenaSize is the element count of each typed slab of one group's arena.
type ArenaSize struct {
	Uint8s, Int32s, Uint64s                                     int
	VCBuffers, OutVCs, Requests, InPorts, OutPorts, PacketSlots int
}

// Add counts what NewInto(p) carves for one router. It must stay the exact
// mirror of it (TestArenaExactFit pins zero slack and zero spill after
// construction).
func (s *ArenaSize) Add(p Params) {
	n := len(p.Ports)
	s.InPorts += n
	s.OutPorts += n
	s.Int32s += 2*n + 1 + len(p.RingOuts)
	s.Uint64s += 3 * n
	s.Uint8s += n * n // output arbiters: one rank row of n per port
	for _, ps := range p.Ports {
		s.VCBuffers += len(ps.InCaps)
		s.Requests += len(ps.InCaps)
		s.Uint8s += len(ps.InCaps) // input arbiters: one rank per VC
		s.OutVCs += len(ps.OutCaps)
		for _, c := range ps.InCaps {
			s.PacketSlots += queueSlots(c)
		}
	}
}

// NewArena allocates every slab once, at exactly the given size.
func NewArena(sz ArenaSize) *Arena {
	return &Arena{
		Size: sz,
		u8:   make([]uint8, sz.Uint8s), i32: make([]int32, sz.Int32s), u64: make([]uint64, sz.Uint64s),
		vcs: make([]VCBuffer, sz.VCBuffers), outVCs: make([]outVC, sz.OutVCs), reqs: make([]Request, sz.Requests),
		inP: make([]InPort, sz.InPorts), outP: make([]OutPort, sz.OutPorts),
		pkts: make([]packet.Handle, sz.PacketSlots),
		Slack: sz.Uint8s + sz.Int32s + sz.Uint64s + sz.VCBuffers + sz.OutVCs +
			sz.Requests + sz.InPorts + sz.OutPorts + sz.PacketSlots,
	}
}

// Bytes is what the slabs of an arena of this size occupy, by part: queue
// slots, VC buffers, arbiter ranks, ports (with their per-VC credit
// records), request slots, and the allocator's scratch masks and indices.
func (s ArenaSize) Bytes() (queues, vcs, arbiters, ports, reqs, scratch int) {
	return s.PacketSlots * int(unsafe.Sizeof(packet.Handle(0))),
		s.VCBuffers * int(unsafe.Sizeof(VCBuffer{})),
		s.Uint8s,
		s.InPorts*int(unsafe.Sizeof(InPort{})) + s.OutPorts*int(unsafe.Sizeof(OutPort{})) +
			s.OutVCs*int(unsafe.Sizeof(outVC{})),
		s.Requests * int(unsafe.Sizeof(Request{})),
		4*s.Int32s + 8*s.Uint64s
}

// carve bumps n elements off one slab, capacity-capped (so a stray append
// can never clobber a neighbor: growth beyond the cap reallocates onto the
// heap). A request beyond what is left is served by make — correct, just
// off-arena — and counted as spill.
func carve[T any](a *Arena, slab *[]T, n int) []T {
	if n <= 0 {
		return nil
	}
	if len(*slab) < n {
		a.Spill += n
		return make([]T, n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	a.Slack -= n
	return out
}
