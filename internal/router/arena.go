package router

import "ofar/internal/packet"

// Arena is a typed bump allocator for router hot state. The network builds
// one arena per dragonfly group and constructs the group's routers into it,
// so every slice the per-cycle loops touch — VC buffer entries (including
// their route-cache fields), credit counters, arbiter timestamps, request
// slots, ready/dirty masks, queue backing arrays — lands in a handful of
// large contiguous slabs owned by that group instead of hundreds of
// individually heap-allocated slices scattered by the allocator.
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
// routers will carve (ArenaSize.Add mirrors NewInto and EnableRouteCache),
// NewArena allocates each typed slab once at exactly that size, and
// construction consumes it to the last element. Routers never free, and
// fault surgery only rewrites in place. The zero Arena is valid and spills
// every request to plain make: bare test routers (Params.Arena nil) get one.
type Arena struct {
	ints []int
	i8   []int8
	i32  []int32
	i64  []int64
	u64  []uint64
	vcs  []VCBuffer
	reqs []Request
	lrs  []LRS
	inP  []InPort
	outP []OutPort
	pkts []*packet.Packet

	// Size is what NewArena allocated; Slack counts the elements not carved
	// (yet), Spill those requested beyond a slab and served off-arena by plain
	// make. Diagnostics: construction ends with both at zero.
	Size         ArenaSize
	Slack, Spill int
}

// ArenaSize is the element count of each typed slab of one group's arena.
type ArenaSize struct {
	Ints, Int8s, Int32s, Int64s, Uint64s                      int
	VCBuffers, Requests, LRSs, InPorts, OutPorts, PacketSlots int
}

// Add counts what NewInto(p) — and EnableRouteCache, when cache is set —
// carve for one router. It must stay the exact mirror of those two
// (TestArenaExactFit pins zero slack and zero spill after construction).
func (s *ArenaSize) Add(p Params, cache bool) {
	n := len(p.Ports)
	s.InPorts += n
	s.OutPorts += n
	s.LRSs += 2 * n
	s.Int32s += 2*n + 1 + len(p.RingOuts)
	s.Uint64s += 2 * n
	s.Int64s += n * n // output arbiters: one row of n per port
	for _, ps := range p.Ports {
		s.VCBuffers += len(ps.InCaps)
		s.Requests += len(ps.InCaps)
		s.Int64s += len(ps.InCaps)
		s.Ints += 2 * len(ps.OutCaps)
		s.Int8s += len(ps.OutCaps)
		for _, c := range ps.InCaps {
			s.PacketSlots += queueSlots(c, p.PktSize)
		}
	}
	if cache {
		s.Uint64s += n
	}
}

// NewArena allocates every slab once, at exactly the given size.
func NewArena(sz ArenaSize) *Arena {
	return &Arena{
		Size: sz,
		ints: make([]int, sz.Ints), i8: make([]int8, sz.Int8s), i32: make([]int32, sz.Int32s),
		i64: make([]int64, sz.Int64s), u64: make([]uint64, sz.Uint64s),
		vcs: make([]VCBuffer, sz.VCBuffers), reqs: make([]Request, sz.Requests),
		lrs: make([]LRS, sz.LRSs), inP: make([]InPort, sz.InPorts), outP: make([]OutPort, sz.OutPorts),
		pkts: make([]*packet.Packet, sz.PacketSlots),
		Slack: sz.Ints + sz.Int8s + sz.Int32s + sz.Int64s + sz.Uint64s + sz.VCBuffers +
			sz.Requests + sz.LRSs + sz.InPorts + sz.OutPorts + sz.PacketSlots,
	}
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

func (a *Arena) Ints(n int) []int           { return carve(a, &a.ints, n) }
func (a *Arena) Int8s(n int) []int8         { return carve(a, &a.i8, n) }
func (a *Arena) Int32s(n int) []int32       { return carve(a, &a.i32, n) }
func (a *Arena) Int64s(n int) []int64       { return carve(a, &a.i64, n) }
func (a *Arena) Uint64s(n int) []uint64     { return carve(a, &a.u64, n) }
func (a *Arena) VCBuffers(n int) []VCBuffer { return carve(a, &a.vcs, n) }
func (a *Arena) Requests(n int) []Request   { return carve(a, &a.reqs, n) }
func (a *Arena) LRSs(n int) []LRS           { return carve(a, &a.lrs, n) }
func (a *Arena) InPorts(n int) []InPort     { return carve(a, &a.inP, n) }
func (a *Arena) OutPorts(n int) []OutPort   { return carve(a, &a.outP, n) }

// PacketSlots carves the n-slot ring of one VC queue.
func (a *Arena) PacketSlots(n int) []*packet.Packet { return carve(a, &a.pkts, n) }
