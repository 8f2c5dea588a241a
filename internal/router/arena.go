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
// unit of the Step pipeline (see network.Network.Step) and measurably faster
// at h=6 scale even without a worker pool.
//
// Allocation is append-only: routers never free, and fault surgery only
// rewrites in place. A nil *Arena is valid everywhere and falls back to
// plain make, so tests constructing bare routers need no arena.
type Arena struct {
	ints slab[int]
	i8   slab[int8]
	i32  slab[int32]
	i64  slab[int64]
	u64  slab[uint64]
	vcs  slab[VCBuffer]
	reqs slab[Request]
	lrs  slab[LRS]
	inP  slab[InPort]
	outP slab[OutPort]
	pkts slab[*packet.Packet]
}

// NewArena returns an empty arena; slabs are carved lazily per type.
func NewArena() *Arena { return &Arena{} }

// slab is one type's bump region. alloc carves a capacity-capped slice of n
// elements (so a stray append can never clobber a neighbor: growth beyond
// the cap reallocates onto the heap, which is correct, just off-arena).
type slab[T any] struct{ buf []T }

func (s *slab[T]) alloc(n, chunk int) []T {
	if n <= 0 {
		return nil
	}
	if len(s.buf) < n {
		if chunk < n {
			chunk = n
		}
		s.buf = make([]T, chunk)
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// Per-type chunk sizes: large enough that one group of the big regimes —
// h=6 (12 routers × 25 ports) and the h=8 stretch build (16 routers × 32
// ports, 512 ports per group) — fits each type in one or two chunks, small
// enough that tiny test topologies waste little (waste is bounded by one
// chunk tail per type per group).
const (
	chunkScalar = 8192
	chunkStruct = 2048
	chunkPkts   = 16384
)

func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.alloc(n, chunkScalar)
}

func (a *Arena) Int8s(n int) []int8 {
	if a == nil {
		return make([]int8, n)
	}
	return a.i8.alloc(n, chunkScalar)
}

func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.alloc(n, chunkScalar)
}

func (a *Arena) Int64s(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return a.i64.alloc(n, chunkScalar)
}

func (a *Arena) Uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.u64.alloc(n, chunkScalar)
}

func (a *Arena) VCBuffers(n int) []VCBuffer {
	if a == nil {
		return make([]VCBuffer, n)
	}
	return a.vcs.alloc(n, chunkStruct)
}

func (a *Arena) Requests(n int) []Request {
	if a == nil {
		return make([]Request, n)
	}
	return a.reqs.alloc(n, chunkStruct)
}

func (a *Arena) LRSs(n int) []LRS {
	if a == nil {
		return make([]LRS, n)
	}
	return a.lrs.alloc(n, chunkStruct)
}

func (a *Arena) InPorts(n int) []InPort {
	if a == nil {
		return make([]InPort, n)
	}
	return a.inP.alloc(n, chunkStruct)
}

func (a *Arena) OutPorts(n int) []OutPort {
	if a == nil {
		return make([]OutPort, n)
	}
	return a.outP.alloc(n, chunkStruct)
}

// PacketSlots carves a zero-length, capacity-n queue backing array.
func (a *Arena) PacketSlots(n int) []*packet.Packet {
	if a == nil {
		return make([]*packet.Packet, 0, n)
	}
	return a.pkts.alloc(n, chunkPkts)[:0]
}
