// Package packet defines the unit of information exchanged through the
// simulated network: fixed-size virtual cut-through packets, their routing
// header state, and a free-list pool that keeps allocation pressure off the
// simulation hot loop.
//
// The simulator works at packet granularity for buffering decisions and at
// phit granularity for bandwidth accounting: a packet of Size phits needs
// Size cycles to cross a link or a crossbar port.
package packet

import (
	"cmp"
	"slices"

	"ofar/internal/simcore"
)

// ID uniquely identifies a packet within one simulation run.
type ID uint64

// Packet is a network packet. All fields are managed by the simulator; user
// code observes packets only through statistics.
//
// Packets scale with traffic, not topology (~200k live at h=6 above
// saturation), so each field is as narrow as its bound allows, and the
// record is 72 bytes (TestPacketSize pins it):
//   - 64 bits only for the ID and the three cycle stamps;
//   - int32 for node indices (radix ≤ 64 means < 2^31 nodes), the job slot,
//     and TotalHops and RingHops, which a packet advances at most once per
//     cycle of its life;
//   - int16 for group indices (radix ≤ 64 means ≤ 4,097 groups; -1 for
//     none), Size (network.Config.Validate caps PacketSize at 32,767), and
//     RingExits, LocalHops and GlobalHops, which core.MaxRingExitsCap keeps
//     below 2^15;
//   - a byte each for the flags and the ring index.
//
// Field order is deliberate: the leading 28 bytes are the routing engines'
// per-cycle read set (consulted for every blocked buffer head at
// saturation), so they mostly share one cache line. The trailing fields are
// written once per hop or once per lifetime. Each field is aligned with no
// padding. Nothing reflects over this struct, and the snapshot walk visits
// its fields by name.
type Packet struct {
	// BlockedSince is the cycle at which the packet most recently became
	// head of an input buffer without being able to advance; < 0 when the
	// packet is not blocked. Drives the escape-ring timeout.
	BlockedSince int64

	Dst  int32 // destination node index
	Size int16 // size in phits

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

	// Misroute header flags used by OFAR (paper §IV-A).
	GlobalMisrouted bool // at most one global non-minimal hop per packet
	LocalMisrouted  bool // at most one local non-minimal hop per group

	// Escape subnetwork state (read by every OFAR Route call).
	OnRing bool // currently stored in an escape-ring buffer
	Ring   int8 // index of the escape ring the packet rides (-1 off-ring)

	// --- cold fields: written per hop or per lifetime ---

	Src int32 // source node index

	// Job is the source job slot under a job-aware workload, -1 otherwise.
	// Read only at the packet's terminal event (delivery or drop) to credit
	// the right per-job statistics bucket.
	Job int32

	TotalHops int32
	RingHops  int32 // hops taken on the escape ring

	// MisrouteGroup remembers the group in which LocalMisrouted was set so
	// the flag can be reset when the packet changes group.
	MisrouteGroup int16

	RingExits int16 // times the packet has left the escape ring

	ID ID

	// Timestamps (in cycles).
	Born     int64 // generation time at the source node
	Injected int64 // time the packet entered the injection buffer
}

// Reset clears a packet for reuse from the pool.
func (p *Packet) Reset() {
	*p = Packet{ValiantGroup: -1, MisrouteGroup: -1, BlockedSince: -1, Ring: -1, Job: -1}
}

// EnterGroup updates per-group header state when the packet arrives at a
// router of group g: the local-misroute flag is per group, and a packet that
// reaches its Valiant intermediate group reverts to minimal routing.
func (p *Packet) EnterGroup(g int) {
	if p.LocalMisrouted && int(p.MisrouteGroup) != g {
		p.LocalMisrouted = false
		p.MisrouteGroup = -1
	}
	if int(p.ValiantGroup) == g {
		p.ValiantGroup = -1
	}
}

// Pool is a free list of packets. It is not safe for concurrent use; the
// simulator is single-threaded by design (single-cycle simulation), and
// parallel experiments each own a private pool.
//
// Fresh packets are carved from block allocations rather than individual
// `new(Packet)` calls: packets born together tend to travel together (a
// saturation wave admits thousands of packets in a few cycles), so block
// carving keeps the packets a router dereferences in one cycle on far fewer
// cache lines and TLB pages than the allocator's default scattering, and it
// cuts allocator metadata per packet to zero. Recycled packets keep their
// original block homes — the free list preserves locality instead of
// fighting it.
type Pool struct {
	free  []*Packet
	block []Packet // current carve block
	carve int      // size of the next carve block; 0 until the first carve
	next  ID
}

// Carve blocks start at poolBlockMin packets and double up to poolBlock
// (36 KiB of 72-byte packets): a low-load run, or a group that never
// injects much, holds a few small blocks, while a saturation wave reaches
// full-size blocks within a few carves and spans a handful of mappings.
const (
	poolBlockMin = 16
	poolBlock    = 512
)

// Get returns a zeroed packet with a fresh ID.
func (pl *Pool) Get() *Packet {
	p := pl.GetBlank()
	p.ID = pl.NextID()
	return p
}

// GetBlank returns a zeroed packet WITHOUT assigning an ID (p.ID stays 0).
// The sharded injection front-end uses per-group pools for memory locality
// but a single run-wide ID sequence for determinism: group shards call
// GetBlank concurrently on their own pools, and the commit barrier stamps IDs
// in (group, node) order via NextID on the shared pool. Callers must stamp an
// ID before the packet becomes observable (traces, snapshots, stats).
func (pl *Pool) GetBlank() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free = pl.free[:n-1]
	} else {
		if len(pl.block) == 0 {
			pl.carve = max(pl.carve, poolBlockMin)
			pl.block = make([]Packet, pl.carve)
			pl.carve = min(2*pl.carve, poolBlock)
		}
		p = &pl.block[0]
		pl.block = pl.block[1:]
	}
	p.Reset()
	return p
}

// NextID advances the run-wide ID sequence and returns the fresh ID. Pairs
// with GetBlank; Get is equivalent to GetBlank + NextID on one pool.
func (pl *Pool) NextID() ID {
	pl.next++
	return pl.next
}

// Put returns a packet to the pool. The caller must not retain references.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Outstanding reports how many IDs have been handed out in total. Useful in
// conservation tests.
func (pl *Pool) Outstanding() uint64 { return uint64(pl.next) }

// SetOutstanding restores the ID counter after a snapshot restore, so packets
// generated from here on continue the original ID sequence (IDs are unique
// for the lifetime of a run; traces and snapshot dedup rely on that).
func (pl *Pool) SetOutstanding(n uint64) { pl.next = ID(n) }

// Table is a snapshot's packet table: every packet the state holds, once
// each, in ID order. The state refers to a packet by its position here, so
// aliased references decode to one object. It is one slice of (ID, packet)
// pairs: encoding binary-searches the IDs, decoding indexes the packets.
type Table struct {
	es []tableEntry
}

type tableEntry struct {
	id ID
	p  *Packet
}

// NewTable returns the table of the packets each visits, each packet once
// however often it is visited. The slice is sized exactly by a counting
// pass, and the sort compares the dense pairs, so it never dereferences a
// packet.
func NewTable(each func(visit func(*Packet))) *Table {
	n := 0
	each(func(*Packet) { n++ })
	t := &Table{es: make([]tableEntry, 0, n)}
	each(func(p *Packet) { t.es = append(t.es, tableEntry{p.ID, p}) })
	slices.SortFunc(t.es, func(a, b tableEntry) int { return cmp.Compare(a.id, b.id) })
	t.es = slices.CompactFunc(t.es, func(a, b tableEntry) bool { return a.id == b.id })
	return t
}

// Len reports how many packets the table holds.
func (t *Table) Len() int { return len(t.es) }

// At returns the packet at position i.
func (t *Table) At(i int) *Packet { return t.es[i].p }

// Add appends p at the next position (decoding, which reads the table in
// ID order).
func (t *Table) Add(p *Packet) { t.es = append(t.es, tableEntry{p.ID, p}) }

// Grow makes room for n more packets.
func (t *Table) Grow(n int) { t.es = slices.Grow(t.es, n) }

// Reset empties the table and drops its packet references, keeping the
// capacity for the next decode.
func (t *Table) Reset() {
	clear(t.es)
	t.es = t.es[:0]
}

// Ref visits a reference to a packet in a snapshot walk: encoding finds
// (*p).ID among the IDs and writes its position, decoding reads a position
// and fails unless it indexes the table.
func (t *Table) Ref(c *simcore.Codec, p **Packet) {
	var i uint64
	if !c.Decoding() {
		k, _ := slices.BinarySearchFunc(t.es, (*p).ID, func(e tableEntry, id ID) int { return cmp.Compare(e.id, id) })
		i = uint64(k)
	}
	c.Uvarint(&i)
	if c.Decoding() && c.Err() == nil {
		if i >= uint64(len(t.es)) {
			c.Fail("packet reference %d outside the %d-packet table", i, len(t.es))
			return
		}
		*p = t.es[i].p
	}
}
