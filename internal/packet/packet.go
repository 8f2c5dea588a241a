// Package packet defines the unit of information exchanged through the
// simulated network: fixed-size virtual cut-through packets, their routing
// header state, the block store that holds them and hands out 32-bit
// handles, and the free-list pools that allocate from it.
//
// Every packet of a network has the same size, network.Config.PacketSize
// phits, so a packet carries no size of its own. The simulator counts
// buffers and credits in packets and time and bandwidth in phits: a packet
// of S phits needs S cycles to cross a link or a crossbar port.
package packet

import (
	"cmp"
	"slices"
	"unsafe"

	"ofar/internal/simcore"
)

// ID uniquely identifies a packet within one simulation run.
type ID uint64

// Packet is a network packet. All fields are managed by the simulator; user
// code observes packets only through statistics.
//
// Packets scale with traffic, not topology (140–160k live at h=6 under
// ADV+6 above saturation), so each field is as narrow as its bound allows, and the
// record is 64 bytes with no padding (TestPacketSize pins it), so a block of
// BlockSize packets is 16 KiB and every packet sits on one cache line:
//   - 64 bits only for the ID and the three cycle stamps;
//   - int32 for node indices (radix ≤ 64 means < 2^31 nodes), the job slot,
//     and RingHops, which a packet advances at most once per cycle of its
//     life;
//   - int16 for group indices (radix ≤ 64 means ≤ 4,097 groups; -1 for
//     none) and RingExits, LocalHops and GlobalHops, which
//     core.MaxRingExitsCap keeps below 2^15;
//   - a byte each for the global-misroute flag and the ring index.
//
// Each fact has one field. The local-misroute flag of §IV-A is
// MisrouteGroup >= 0, "on the escape ring" is Ring >= 0, and the total hop
// count is Hops(); the version-5 snapshot image still carries all three as
// slots, derived from these fields (see network.packetState).
//
// Field order is deliberate: the leading 28 bytes hold the routing engines'
// per-cycle read set (consulted for every blocked buffer head at
// saturation). The trailing fields are written once per hop or once per
// lifetime. Nothing reflects over this struct, and the snapshot walk visits
// its fields by name.
type Packet struct {
	// BlockedSince is the cycle at which the packet most recently became
	// head of an input buffer without being able to advance; < 0 when the
	// packet is not blocked. Drives the escape-ring timeout.
	BlockedSince int64

	Dst int32 // destination node index

	SrcGroup int16 // group of the source node (cached)
	DstGroup int16 // group of the destination node (cached)

	// ValiantGroup is the intermediate group chosen at injection time by
	// source-adaptive mechanisms (VAL, PB, UGAL). It is < 0 when no
	// intermediate group has been assigned, and it is cleared (set to -1)
	// once the packet reaches the intermediate group, at which point the
	// packet proceeds minimally.
	ValiantGroup int16

	// Hop class counters used for deadlock-free VC selection by the
	// baseline mechanisms (ascending VC order).
	LocalHops  int16 // local hops taken so far
	GlobalHops int16 // global hops taken so far

	// Misroute header state used by OFAR (paper §IV-A). MisrouteGroup is
	// the group in which the packet took its local non-minimal hop, -1 when
	// it has taken none in its current group: at most one per group.
	MisrouteGroup   int16
	GlobalMisrouted bool // at most one global non-minimal hop per packet

	// Escape subnetwork state. OFAR reads RingExits, its exit budget; no
	// decision reads Ring, which the version-5 snapshot image carries.
	Ring      int8  // index of the escape ring the packet rides (-1 off-ring)
	RingExits int16 // times the packet has left the escape ring

	// --- cold fields: written per hop or per lifetime ---

	Src int32 // source node index

	// Job is the source job slot under a job-aware workload, -1 otherwise.
	// Read only at the packet's terminal event (delivery or drop) to credit
	// the right per-job statistics bucket.
	Job int32

	RingHops int32 // hops taken on the escape ring

	ID ID

	// Timestamps (in cycles).
	Born     int64 // generation time at the source node
	Injected int64 // time the packet entered the injection buffer
}

// Reset clears a packet for reuse from the pool.
func (p *Packet) Reset() {
	*p = Packet{ValiantGroup: -1, MisrouteGroup: -1, BlockedSince: -1, Ring: -1, Job: -1}
}

// Hops returns the hops the packet has taken: local, global and escape-ring.
func (p *Packet) Hops() int { return int(p.LocalHops) + int(p.GlobalHops) + int(p.RingHops) }

// EnterGroup updates per-group header state when the packet arrives at a
// router of group g: the local-misroute flag is per group, and a packet that
// reaches its Valiant intermediate group reverts to minimal routing.
func (p *Packet) EnterGroup(g int) {
	if int(p.MisrouteGroup) != g {
		p.MisrouteGroup = -1
	}
	if int(p.ValiantGroup) == g {
		p.ValiantGroup = -1
	}
}

// Handle is a packet's 32-bit address in a Store: the index of its block in
// the store's directory above BlockBits, its slot in the block below. The
// simulation state refers to packets only by handle — VC queues, events,
// source queues, free lists — so none of it holds a pointer for the garbage
// collector to scan, and each reference takes half the bytes.
type Handle uint32

// A block holds BlockSize packets (16 KiB, an exact allocator size class).
// MaxBlocks bounds a directory so that every handle addresses a slot except
// None, which is all ones.
const (
	BlockBits        = 8
	BlockSize        = 1 << BlockBits
	MaxBlocks        = 1<<(32-BlockBits) - 1
	None      Handle = 1<<32 - 1
)

type block [BlockSize]Packet

// Store is the packet memory of one network: a directory of fixed blocks.
// Each block belongs to one Pool, which alone carves it and recycles its
// slots, so a packet never moves. At resolves a handle with one indexed load
// from the directory.
//
// The directory grows when a pool reserves entries (Reserve) or carves a
// block with none reserved; growth may move it, so either must happen where
// nothing else resolves handles. A pool carving into a reserved entry writes
// that entry alone, so pools carve concurrently without a race: the network
// reserves for a whole lookahead window before the window starts.
type Store struct {
	blocks []*block
}

// At returns the packet a handle addresses.
func (s *Store) At(h Handle) *Packet { return &s.blocks[h>>BlockBits][h&(BlockSize-1)] }

// Pool is a free list of packets over blocks of a Store. It is not safe for
// concurrent use; the network gives every dragonfly group its own pool on
// one shared store, so a group's packets are allocated, and recycled, by the
// group that generated them.
//
// Blocks keep packets born together close: a saturation wave admits
// thousands of packets in a few cycles, and carving them from the same
// blocks keeps the packets a router reads in one cycle on far fewer cache
// lines and TLB pages than the allocator's scattering would. Recycled
// packets keep their block homes — the free list preserves that locality.
//
// The zero Pool is valid: it makes a private store on first use, and Get and
// Put hand out and take back packets by pointer. The engine itself
// allocates and frees by handle (Alloc, Free).
type Pool struct {
	store *Store
	free  []Handle
	own   []uint32 // directory indices of the pool's blocks, in carve order
	spare []uint32 // directory entries reserved for the pool's next blocks
	used  int      // slots of own handed out, front to back; the rest are uncarved
	next  ID
}

// NewPool returns an empty pool allocating from s.
func NewPool(s *Store) Pool { return Pool{store: s} }

// NewPools returns n empty pools allocating from s.
func NewPools(s *Store, n int) []Pool {
	pools := make([]Pool, n)
	for i := range pools {
		pools[i].store = s
	}
	return pools
}

// Store returns the store the pool allocates from.
func (pl *Pool) Store() *Store {
	if pl.store == nil {
		pl.store = new(Store)
	}
	return pl.store
}

// Alloc returns the handle of a reset packet without an ID: a recycled slot
// if the free list has one, else the next uncarved slot of the pool's
// blocks.
func (pl *Pool) Alloc() Handle {
	var h Handle
	if n := len(pl.free); n > 0 {
		h = pl.free[n-1]
		pl.free = pl.free[:n-1]
	} else {
		if pl.used == len(pl.own)*BlockSize {
			pl.carve()
		}
		h = Handle(pl.own[pl.used>>BlockBits])<<BlockBits | Handle(pl.used&(BlockSize-1))
		pl.used++
	}
	pl.store.At(h).Reset()
	return h
}

// carve gives the pool a new block, in a reserved directory entry if it has
// one and else in a new one.
func (pl *Pool) carve() {
	s := pl.Store()
	var i uint32
	if n := len(pl.spare); n > 0 {
		i, pl.spare = pl.spare[n-1], pl.spare[:n-1]
	} else {
		i = s.entry()
	}
	s.blocks[i] = new(block)
	pl.own = append(pl.own, i)
}

// entry appends an empty directory entry and returns its index.
func (s *Store) entry() uint32 {
	if len(s.blocks) >= MaxBlocks {
		panic("packet: store directory full (network.New bounds every group's packets)")
	}
	s.blocks = append(s.blocks, nil)
	return uint32(len(s.blocks) - 1)
}

// Free returns a packet's slot to the pool. The caller must hold no other
// reference to the handle.
func (pl *Pool) Free(h Handle) { pl.free = append(pl.free, h) }

// Reserve makes sure the pool's next n Allocs need no new directory entry:
// between them, the free list, the uncarved slots and the reserved entries
// hold n packets. Call it where nothing else resolves handles; the Allocs
// may then run concurrently with other pools' and with handle resolution.
func (pl *Pool) Reserve(n int) {
	s := pl.Store()
	for n -= len(pl.free) + (len(pl.own)+len(pl.spare))*BlockSize - pl.used; n > 0; n -= BlockSize {
		pl.spare = append(pl.spare, s.entry())
	}
}

// Reset forgets every packet the pool handed out: the free list empties and
// carving restarts at the first slot of the pool's first block, so the next
// Allocs fill the pool's blocks densely in order. The blocks stay the pool's.
func (pl *Pool) Reset() {
	pl.free = pl.free[:0]
	pl.used = 0
}

// Get returns a reset packet with a fresh ID.
func (pl *Pool) Get() *Packet {
	h := pl.Alloc()
	p := pl.store.At(h)
	p.ID = pl.NextID()
	return p
}

// Put returns a packet Get handed out to the pool. The caller must not
// retain references.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	for _, i := range pl.own {
		b := pl.store.blocks[i]
		if off := uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(b)); off < unsafe.Sizeof(*b) {
			pl.Free(Handle(i)<<BlockBits | Handle(off/unsafe.Sizeof(*p)))
			return
		}
	}
	panic("packet: Put of a packet the pool did not hand out")
}

// NextID advances the run-wide ID sequence and returns the fresh ID.
func (pl *Pool) NextID() ID {
	pl.next++
	return pl.next
}

// Outstanding reports how many IDs have been handed out in total. Useful in
// conservation tests.
func (pl *Pool) Outstanding() uint64 { return uint64(pl.next) }

// SetOutstanding restores the ID counter after a snapshot restore, so packets
// generated from here on continue the original ID sequence (IDs are unique
// for the lifetime of a run; traces and snapshot dedup rely on that).
func (pl *Pool) SetOutstanding(n uint64) { pl.next = ID(n) }

// Addressable reports whether a store can serve groups pools that each hold
// at most live packets at once and reserve room for window more (Reserve):
// at worst a pool's blocks and reserved entries cover both plus one block,
// and all pools' together must fit the directory.
func Addressable(groups, live, window int) bool {
	return groups*((live+window+BlockSize-1)/BlockSize+1) <= MaxBlocks
}

// Refs is a snapshot's packet table: every packet the state holds, once
// each, in ID order. The state refers to a packet by its position here, so
// a packet referenced twice — a draining head also in flight as an arrival —
// decodes to one packet. Both maps are flat 32-bit arrays: order maps a
// position to its handle, and pos (encoding only) maps a carved slot to its
// position, base locating each block's slots in pos.
type Refs struct {
	order []Handle
	pos   []uint32
	base  []int32
}

// Index fills an empty table with the handles each visits, each once
// however often it is visited, sorted by packet ID.
func (t *Refs) Index(s *Store, each func(visit func(Handle))) {
	t.base = make([]int32, len(s.blocks))
	k := 0
	for i, b := range s.blocks {
		t.base[i] = -1
		if b != nil {
			t.base[i] = int32(k)
			k += BlockSize
		}
	}
	t.pos = make([]uint32, k)
	n := 0
	each(func(h Handle) {
		if i := t.slot(h); t.pos[i] == 0 {
			t.pos[i] = 1
			n++
		}
	})
	t.order = make([]Handle, 0, n)
	for i, b := range s.blocks {
		for j := 0; b != nil && j < BlockSize; j++ {
			if t.pos[int(t.base[i])+j] != 0 {
				t.order = append(t.order, Handle(i)<<BlockBits|Handle(j))
			}
		}
	}
	slices.SortFunc(t.order, func(a, b Handle) int { return cmp.Compare(s.At(a).ID, s.At(b).ID) })
	for i, h := range t.order {
		t.pos[t.slot(h)] = uint32(i)
	}
}

// slot is h's index in pos.
func (t *Refs) slot(h Handle) int { return int(t.base[h>>BlockBits]) + int(h&(BlockSize-1)) }

// Len reports how many packets the table holds.
func (t *Refs) Len() int { return len(t.order) }

// At returns the handle at position i.
func (t *Refs) At(i int) Handle { return t.order[i] }

// Add appends h at the next position (decoding, which reads the table in
// ID order).
func (t *Refs) Add(h Handle) { t.order = append(t.order, h) }

// Reset empties the table for a decode of n packets, keeping its capacity
// for the next.
func (t *Refs) Reset(n int) { t.order = slices.Grow(t.order[:0], n) }

// Ref visits a reference to a packet in a snapshot walk: encoding writes
// h's position, decoding reads a position and fails unless it indexes the
// table.
func (t *Refs) Ref(c *simcore.Codec, h *Handle) {
	var i uint64
	if !c.Decoding() {
		i = uint64(t.pos[t.slot(*h)])
	}
	c.Uvarint(&i)
	if c.Decoding() && c.Err() == nil {
		if i >= uint64(len(t.order)) {
			c.Fail("packet reference %d outside the %d-packet table", i, len(t.order))
			return
		}
		*h = t.order[i]
	}
}
