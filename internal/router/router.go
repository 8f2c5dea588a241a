package router

import (
	"math"
	"math/bits"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// PortSpec describes one bidirectional port pair of a router: the input
// buffer profile (what this router stores) and the output credit profile
// (mirroring the downstream input buffer at the other end of the link).
type PortSpec struct {
	Kind     topology.PortKind
	Peer     int // downstream router fed by this port's output; -1 when unwired
	PeerPort int // downstream router's input-port index
	// UpRouter/UpPort identify the upstream output feeding this port's
	// input buffer. For canonical bidirectional links these equal
	// Peer/PeerPort; unidirectional escape-ring ports differ (the input
	// comes from the ring predecessor while the output feeds the
	// successor).
	UpRouter int
	UpPort   int
	Latency  int // link latency in cycles

	InCaps  []int // per-VC capacities of this router's input buffer (packets)
	InRing  []int // escape-ring tag per input VC (-1 canonical)
	OutCaps []int // per-VC capacities of the downstream buffer (packets: credits)
	OutRing []int // escape-ring tag per downstream VC
}

// Params configures one router instance.
type Params struct {
	ID         int
	Topo       *topology.Dragonfly
	PktSize    int
	AllocIters int // separable-allocator iterations (paper: 3)
	RNG        *simcore.RNG
	Ports      []PortSpec

	// Escape subnetwork: output port realizing each ring's next hop
	// (empty when no escape network is configured).
	RingOuts []int

	// PB piggybacking board shared by the router's group (nil when the
	// routing mechanism does not use it).
	PB          *FlagBoard
	PBThreshold float64

	// Packets resolves the packet handles the router's buffers hold.
	Packets *packet.Store

	// Arena, when non-nil, backs every slice the router allocates (ports,
	// VC buffers, queue backings, arbiter rows, allocator scratch, cache
	// masks). The network hands all routers of one dragonfly group the same
	// arena so a group's hot state is contiguous; nil keeps plain make.
	Arena *Arena
}

// Router is one input-buffered VCT router.
type Router struct {
	ID    int
	Group int
	Topo  *topology.Dragonfly

	In  []InPort
	Out []OutPort

	PktSize    int // phits of every packet: the cycles a grant keeps its ports busy
	AllocIters int

	rng         *simcore.RNG
	pkts        *packet.Store
	pb          *FlagBoard
	pbThreshold float64

	ringOuts []int32

	// canonical input-buffer occupancy in packets, tracked incrementally for
	// the congestion-management injection throttle.
	occPkts int
	capPkts int

	// readyVCs counts input VCs holding a routable head: non-empty and not
	// draining. It is maintained incrementally by Arrive/Inject/commit/
	// FinishDrain; when it is zero Cycle returns at once, touching nothing
	// (no engine.Route call, no RNG draw, no arbiter movement, no header
	// writes). readyPorts is the port-level projection (bit ip set iff
	// In[ip].ready != 0), kept at the same sites, so Cycle iterates only
	// ports that can hold work.
	readyVCs   int
	readyPorts uint64

	// pbDirty is set whenever the canonical occupancy of a global output
	// port may have changed (credits taken or refunded), i.e. whenever the
	// PB flags this router publishes could differ from their last published
	// values. The network republishes only dirty routers.
	pbDirty bool

	// LRS arbiter rank rows (see arbiter.go): inRank holds one rank per input
	// VC, the row of input port ip starting at vcBase[ip]; outRank holds a row
	// of len(In) per output port, output op's at op·len(In).
	inRank  []uint8
	outRank []uint8

	// allocator scratch state (reused every cycle). Request validity and the
	// separable-allocator match state live in bitsets: reqMask[ip] holds the
	// valid-request VC mask of input port ip (rebuilt from scratch each
	// cycle), outCandMask[op] the candidate input-port mask of output port op
	// (cleared as it is consumed). The flattened reqs slots are never
	// cleared — a slot is only read when its reqMask bit is set this cycle,
	// and only a re-evaluation of that (port, vc) writes it, which is what
	// lets route-cache hits skip the write entirely.
	reqs        []Request
	reqMask     []uint64
	vcBase      []int32
	candVC      []int32
	outCandMask []uint64
	touchedOut  []int32 // outputs with candidates, in first-touch order
	grants      []Grant

	// Route-cache state (EnableRouteCache). dirty accumulates a bit per
	// output port whose engine-visible state changed since the last
	// formation pass captured it: credits taken (commit) or refunded
	// (AddCredit), busy→free expiry (expireBusy), link death (FailOutput),
	// ring-edge removal (FailRing) and structural credit surgery
	// (NoteOutMutated). Cycle drains dirty into the cycle's invalidation
	// window, which only the cache reads; a cached decision is stale iff its
	// read-set mask intersects the window. Live cache entries are
	// re-validated every Cycle (an entry's VC has its ready bit set by
	// definition), with two gaps both covered: a busy input port's entries
	// are skipped for the busy span, so the skipped windows accumulate in
	// pendingDirty[ip]; an idle router's Cycle returns before the drain, so
	// dirty itself accumulates until its next working Cycle captures the
	// union. rngDraws counts RandInt calls: a decision that consumed
	// randomness is never cached, which is what makes replaying a cached
	// decision deterministic.
	cacheOn      bool
	dirty        uint64
	pendingDirty []uint64
	rngDraws     uint64

	// outBusy mirrors "Out[o].busyUntil > now": commit sets a port's bit,
	// expireBusy clears crossed bits once now reaches nextFree, the earliest
	// future busy→free transition (MaxInt64 if none). It lets that scan walk
	// only busy ports and turns the allocator's available-output rebuild
	// into a complement (allOut is the all-ports mask).
	outBusy  uint64
	allOut   uint64
	nextFree int64

	// rsMask and rsExpire are the read set the engine.Route call in progress
	// records (NoteRead, NoteExpiry); formRequests resets them before every
	// call and, with the cache on, stores them as the head's entry.
	rsMask   uint64
	rsExpire int64

	// cands memoizes the pass's Candidates queries while candOn: nCands
	// slots, one per key. Four hold what the static policy asks (a range per
	// hop class); a query past the last slot is just computed.
	cands [4]struct {
		key  candKey
		mask uint64
	}
	nCands int
	candOn bool
}

// candKey is a Candidates query; its cycle is the pass's.
type candKey struct {
	th                float64
	base, count, hops uint8
	strict            bool
}

// New builds a router from its parameter block.
func New(p Params) *Router {
	r := new(Router)
	NewInto(r, p)
	return r
}

// NewInto initializes a router in place. The network uses it to construct
// all routers of a group into one contiguous []Router slab (with p.Arena
// backing their slices), so the group's entire working set — the Router
// structs and everything they point at — is carved from a few large
// allocations in iteration order.
func NewInto(r *Router, p Params) {
	ar := p.Arena
	if ar == nil {
		ar = new(Arena)
	}
	*r = Router{
		ID:          p.ID,
		Group:       p.Topo.GroupOf(p.ID),
		Topo:        p.Topo,
		PktSize:     p.PktSize,
		AllocIters:  p.AllocIters,
		rng:         p.RNG,
		pkts:        p.Packets,
		pb:          p.PB,
		pbThreshold: p.PBThreshold,
		nextFree:    math.MaxInt64,
	}
	if r.AllocIters < 1 {
		r.AllocIters = 1
	}
	n := len(p.Ports)
	r.allOut = ^uint64(0) >> uint(64-n) // Config.Validate caps a router at 64 ports
	r.In = carve(ar, &ar.inP, n)
	r.Out = carve(ar, &ar.outP, n)
	r.outRank = carve(ar, &ar.u8, n*n)
	r.vcBase = carve(ar, &ar.i32, n+1)
	r.candVC = carve(ar, &ar.i32, n)
	r.reqMask = carve(ar, &ar.u64, n)
	r.outCandMask = carve(ar, &ar.u64, n)
	r.pendingDirty = carve(ar, &ar.u64, n)
	total := 0
	for i, ps := range p.Ports {
		r.vcBase[i] = int32(total)
		in := &r.In[i]
		in.Kind = ps.Kind
		in.UpRouter, in.UpPort = int32(ps.UpRouter), int16(ps.UpPort)
		in.VCs = carve(ar, &ar.vcs, len(ps.InCaps))
		for vc := range in.VCs {
			ring := -1
			if ps.InRing != nil {
				ring = ps.InRing[vc]
			}
			buf := &in.VCs[vc]
			buf.q = carve(ar, &ar.pkts, queueSlots(ps.InCaps[vc]))
			buf.Init(ps.InCaps[vc], ring)
			if ring < 0 {
				r.capPkts += ps.InCaps[vc]
			}
		}
		out := &r.Out[i]
		out.Kind = ps.Kind
		out.Peer, out.PeerPort = int32(ps.Peer), int16(ps.PeerPort)
		if ps.Kind == topology.PortNode {
			in.UpRouter, in.UpPort, out.Peer, out.PeerPort = -1, -1, -1, -1
		}
		out.Latency = int32(ps.Latency)
		out.initOut(ar, ps.OutCaps, ps.OutRing)
		initRanks(r.outRow(i))
		total += len(ps.InCaps)
	}
	r.vcBase[n] = int32(total)
	r.inRank = carve(ar, &ar.u8, total)
	for i := range r.In {
		initRanks(r.inRow(i))
	}
	r.reqs = carve(ar, &ar.reqs, total)
	r.ringOuts = carve(ar, &ar.i32, len(p.RingOuts))
	for i, po := range p.RingOuts {
		r.ringOuts[i] = int32(po)
	}
}

// inRow is input port ip's arbiter rank row, one rank per VC.
func (r *Router) inRow(ip int) []uint8 { return r.inRank[r.vcBase[ip]:r.vcBase[ip+1]] }

// outRow is output port op's arbiter rank row, one rank per input port.
func (r *Router) outRow(op int) []uint8 { return r.outRank[op*len(r.In) : (op+1)*len(r.In)] }

// ArbiterRanks returns the rank rows of port's input arbiter (one rank per
// VC) and output arbiter (one per input port), aliasing the router's state.
// Test hook: the snapshot tests plant rows that Restore must refuse.
func (r *Router) ArbiterRanks(port int) (in, out []uint8) { return r.inRow(port), r.outRow(port) }

// --- engine-facing helpers ---------------------------------------------------

// RandInt returns a uniform integer in [0,n) from the router's private RNG.
// The draw counter lets Cycle detect decisions that consumed randomness and
// refuse to cache them.
func (r *Router) RandInt(n int) int {
	r.rngDraws++
	return r.rng.Intn(n)
}

// NoteRead records that the Route call in progress read output port port's
// state: credits, busy or dead status, escape-ring reachability. A cached
// decision is replayed only while no port it read has changed.
func (r *Router) NoteRead(port int) { r.rsMask |= 1 << uint(port) }

// ReadSet returns the output ports the Route call in progress has noted as
// read so far. Test hook: the candidate scan's oracle compares read sets.
func (r *Router) ReadSet() uint64 { return r.rsMask }

// NoteExpiry makes the Route call in progress replayable until cycle
// (exclusive): the first cycle its decision may change by time alone, e.g. a
// blocked-cycles threshold being crossed, or math.MaxInt64 when time cannot
// change it. Busy deadlines need not be folded in; the router tracks
// busy→free transitions itself. A call that notes no expiry is never
// replayed, so an engine opts into the cache call by call.
func (r *Router) NoteExpiry(cycle int64) { r.rsExpire = cycle }

// EnableRouteCache turns on dirty-mask-invalidated route memoization: one
// entry per input VC (see formRequests). The network calls it once, after
// construction, unless the config disables caching. Runs are bit-identical
// with the cache on or off (see TestRouteCacheDifferential); the cache only
// skips recomputation of decisions whose inputs provably did not change.
func (r *Router) EnableRouteCache() { r.cacheOn = true }

// NoteOutMutated records that an output port's credit or peer state was
// rewritten outside the normal commit/refund paths (escape-ring splice
// surgery). Cached decisions that read the port are invalidated.
func (r *Router) NoteOutMutated(port int) { r.dirty |= 1 << uint(port) }

// Candidates returns the mask of the misroute candidates among the output
// ports in [base, base+count), noting the whole range as read: ports that
// are wired and free, whose occupancy is ≤ th (< th when strict), and whose
// hop-class VC (for a packet that took hops global hops) is canonical with
// at least two credits — real headroom, not measurement noise. Nothing an
// engine reads changes during a formRequests pass (allocate commits after
// every head has routed), so within a pass later heads reuse the first
// mask computed for a key; outside a pass nothing is kept.
func (r *Router) Candidates(base, count, hops int, th float64, strict bool, now int64) uint64 {
	r.rsMask |= (1<<uint(count) - 1) << uint(base)
	key := candKey{th, uint8(base), uint8(count), uint8(min(hops, 63)), strict}
	for _, c := range r.cands[:r.nCands] {
		if c.key == key {
			return c.mask
		}
	}
	var m uint64
	for port := base; port < base+count; port++ {
		op := &r.Out[port]
		if op.Kind == topology.PortNone || op.Busy(now) {
			continue
		}
		v := &op.vcs[op.ClassVC(int(key.hops))]
		if occ := op.Occupancy(); occ > th || strict && occ >= th || v.credits < 2 || v.ring >= 0 && op.Kind != topology.PortNode {
			continue
		}
		m |= 1 << uint(port)
	}
	if r.candOn && r.nCands < len(r.cands) {
		r.cands[r.nCands].key, r.cands[r.nCands].mask = key, m
		r.nCands++
	}
	return m
}

// FailOutput marks one output port's link as failed: the port becomes
// permanently busy and is never granted again. PB flags of a dead global
// link must republish as congested, so the router is marked dirty.
func (r *Router) FailOutput(port int) {
	r.Out[port].dead = true
	r.dirty |= 1 << uint(port)
	if r.pb != nil && r.Out[port].Kind == topology.PortGlobal {
		r.pbDirty = true
	}
}

// DropBuffered discards every packet buffered in this router's input VCs,
// except heads that already won allocation and are draining (their phits are
// on the crossbar; the pending FinishDrain completes them). Routable heads
// that are dropped decrement readyVCs. Used when the whole router fails.
func (r *Router) DropBuffered(visit func(packet.Handle)) {
	for i := range r.In {
		for vc := range r.In[i].VCs {
			buf := &r.In[i].VCs[vc]
			if buf.Len() > 0 && !buf.Draining() {
				r.readyVCs-- // the routable head is among the dropped
				r.In[i].ready &^= 1 << uint(vc)
			}
			before := buf.Len()
			buf.DropQueued(visit)
			if !buf.Escape {
				r.occPkts -= before - buf.Len()
			}
		}
		if r.In[i].ready == 0 {
			r.readyPorts &^= 1 << uint(i)
		}
	}
}

// NumRings returns the number of escape rings configured on this router.
func (r *Router) NumRings() int { return len(r.ringOuts) }

// RingOut returns the output port and escape VC continuing ring `ring` from
// this router, along with that VC's current credits. A failed ring edge
// (FailRing) reports ok == false.
func (r *Router) RingOut(ring int) (port, vc, credits int, ok bool) {
	if ring < 0 || ring >= len(r.ringOuts) {
		return -1, -1, 0, false
	}
	port = int(r.ringOuts[ring])
	if port < 0 {
		return -1, -1, 0, false
	}
	op := &r.Out[port]
	vc, ok = op.bestEscapeVC(ring)
	if !ok {
		return -1, -1, 0, false
	}
	return port, vc, op.Credits(vc), true
}

// FailRing marks this router's outgoing edge of the given escape ring as
// failed (§VII reliability discussion): the ring can no longer be entered
// or continued from here. Packets already queued on the ring upstream exit
// through canonical outputs as usual.
func (r *Router) FailRing(ring int) {
	if ring >= 0 && ring < len(r.ringOuts) {
		if po := r.ringOuts[ring]; po >= 0 {
			r.dirty |= 1 << uint(po) // cached RingOut reads of this port are stale
		}
		r.ringOuts[ring] = -1
	}
}

// PBFlag returns the delayed piggybacked congestion flag of group-link
// `link` (0..a·h-1) as seen at cycle now.
func (r *Router) PBFlag(link int, now int64) bool {
	if r.pb == nil {
		return false
	}
	return r.pb.Get(now, link)
}

// UpdatePBFlags publishes the congestion state of this router's own global
// links to the group's flag board. The board stores transitions, so calling
// this only after a credit movement on a global port (see PBDirty) yields
// exactly the same reader-visible flag sequence as calling it every cycle.
func (r *Router) UpdatePBFlags(now int64) {
	if r.pb == nil {
		return
	}
	base := r.Topo.GlobalPortBase()
	rl := r.Topo.LocalIndex(r.ID)
	for k := 0; k < r.Topo.H; k++ {
		op := &r.Out[base+k]
		if op.Kind == topology.PortNone {
			continue
		}
		r.pb.Set(now, rl*r.Topo.H+k, op.dead || op.Occupancy() >= r.pbThreshold)
	}
	r.pbDirty = false
}

// PBDirty reports whether a global output port's occupancy may have changed
// since the last UpdatePBFlags, i.e. whether the router's published PB flags
// could be stale.
func (r *Router) PBDirty() bool { return r.pbDirty }

// --- event-side interface (driven by the network) ---------------------------

// Arrive stores packet h arriving on (port, vc) and updates its header: hop
// counters, per-group flag lifetimes and Valiant-group completion.
func (r *Router) Arrive(port, vc int, h packet.Handle) {
	p := r.pkts.At(h)
	p.TotalHops++
	if r.push(port, vc, h).Escape {
		p.RingHops++
	} else {
		switch r.In[port].Kind {
		case topology.PortLocal:
			p.LocalHops++
		case topology.PortGlobal:
			p.GlobalHops++
		}
	}
	p.EnterGroup(r.Group)
	p.BlockedSince = -1
}

// FinishDrain completes the transfer of the head packet of (port, vc),
// freeing its buffer space. It returns the packet and the upstream output
// coordinates that must be refunded (upRouter == -1 for injection buffers).
func (r *Router) FinishDrain(port, vc int) (h packet.Handle, upRouter, upPort int) {
	inp := &r.In[port]
	buf := &inp.VCs[vc]
	h = buf.FinishDrain()
	if buf.Len() > 0 {
		r.readyVCs++ // the queued packet behind the drained head is now routable
		inp.ready |= 1 << uint(vc)
		r.readyPorts |= 1 << uint(port)
	}
	if !buf.Escape {
		r.occPkts--
	}
	return h, int(inp.UpRouter), int(inp.UpPort)
}

// AddCredit refunds a packet's credit on an output port (a downstream buffer
// freed its space).
func (r *Router) AddCredit(port, vc int) {
	r.Out[port].Refund(vc)
	r.dirty |= 1 << uint(port)
	if r.pb != nil && r.Out[port].Kind == topology.PortGlobal {
		r.pbDirty = true
	}
}

// InjectionSpace returns the injection VC of node-slot port `port` with the
// most free space, if any has room for a packet.
func (r *Router) InjectionSpace(port int) (vc int, ok bool) {
	inp := &r.In[port]
	best, bestFree := -1, 0
	for i := range inp.VCs {
		if f := inp.VCs[i].Free(); f > bestFree {
			best, bestFree = i, f
		}
	}
	return best, best >= 0
}

// Inject places freshly generated packet h into injection buffer (port, vc).
func (r *Router) Inject(port, vc int, h packet.Handle, now int64) {
	r.pkts.At(h).Injected = now
	r.push(port, vc, h)
}

// push stores packet h in input buffer (port, vc), routable at once if the
// buffer was idle, and returns the buffer; escape VCs count no occupancy.
func (r *Router) push(port, vc int, h packet.Handle) *VCBuffer {
	inp := &r.In[port]
	buf := &inp.VCs[vc]
	if buf.Len() == 0 && !buf.Draining() {
		r.readyVCs++ // empty → head becomes routable
		inp.ready |= 1 << uint(vc)
		r.readyPorts |= 1 << uint(port)
	}
	buf.Push(h)
	if !buf.Escape {
		r.occPkts++
	}
	return buf
}

// RoutableVCs returns the number of input VCs holding a routable head
// (non-empty, not draining). When it is 0, Cycle returns at once — it calls
// no engine, draws no randomness and moves no arbiter state (see
// TestIdleCycleIsPure).
func (r *Router) RoutableVCs() int { return r.readyVCs }

// CanonicalOccupancy returns the fraction of this router's canonical input
// buffering that is currently occupied — the congestion signal used by the
// injection throttle.
func (r *Router) CanonicalOccupancy() float64 {
	if r.capPkts == 0 {
		return 0
	}
	return float64(r.occPkts) / float64(r.capPkts)
}

// StateFingerprint folds every piece of router state that a Cycle call may
// mutate — the private RNG stream, the arbiter ranks, buffer contents and
// drain state, port serialization deadlines and the occupancy counters —
// into one FNV-1a hash. Tests compare fingerprints across a Cycle call on an
// idle router to prove the call had no side effects (the contract of Cycle's
// early return). The request scratch and the grants slice are deliberately
// excluded: a reqs slot is read only under a reqMask bit formRequests set
// this cycle and grants is truncated before allocate appends, so stale
// contents are unobservable. The route cache (per-buffer entries, the
// dirty/pendingDirty masks, nextFree/outBusy, rngDraws) is excluded too: it
// is pure memoization of values recomputable from the fingerprinted state,
// and excluding it is what makes cache-on and cache-off runs — which are
// bit-identical by construction — report identical fingerprints.
func (r *Router) StateFingerprint() uint64 {
	var e simcore.Enc
	for _, s := range r.rng.State() {
		e.U64(s)
	}
	e.Raw(r.inRank)
	e.Raw(r.outRank)
	e.Int(r.occPkts)
	e.Int(r.readyVCs)
	e.Bool(r.pbDirty)
	for i := range r.In {
		e.I64(r.In[i].busyUntil)
		for vc := range r.In[i].VCs {
			buf := &r.In[i].VCs[vc]
			e.Int(buf.Len())
			e.Bool(buf.draining)
		}
		op := &r.Out[i]
		e.I64(op.busyUntil)
		e.Bool(op.dead)
		for _, v := range op.vcs {
			e.Int(int(v.credits))
		}
	}
	return simcore.Checksum64(e.Data())
}

// --- per-cycle routing + switch allocation -----------------------------------

// Cycle is one cycle of the paper's router pipeline (§V): every routable
// buffer head gets a routing decision — revisited each cycle while the head
// stays blocked — and the iterative separable allocator matches the requests
// to free outputs, committing the winners. It returns the cycle's grants; the
// returned slice is reused next cycle.
//
// A router with no routable head returns an empty grant list without touching
// any state: credits that arrive meanwhile accumulate in dirty, and busy-timer
// expiries are picked up by expireBusy at the next working Cycle.
//
// The cycle's invalidation window is the set of output ports whose
// engine-visible state changed since the previous working Cycle: dirty,
// drained here, after expireBusy has added the ports that crossed busy→free.
// Only the route cache reads it; the cache-off reference path consults no
// entry.
func (r *Router) Cycle(engine Engine, now int64) []Grant {
	if r.readyVCs == 0 {
		return r.grants[:0]
	}
	if now >= r.nextFree {
		r.expireBusy(now)
	}
	window := r.dirty
	r.dirty = 0
	r.grants = r.grants[:0]
	if inPend := r.formRequests(engine, now, window); inPend != 0 {
		r.allocate(inPend, now)
	}
	return r.grants
}

// expireBusy marks the output ports that crossed busy→free since the last
// scan dirty (cached decisions that saw them busy are stale), clears them
// from outBusy and finds the next future transition. Commits keep nextFree a
// lower bound on unexpired deadlines and outBusy a superset of the busy
// ports, so no transition is ever missed and, once this has run for a cycle,
// outBusy is exact for it.
func (r *Router) expireBusy(now int64) {
	newNext := int64(math.MaxInt64)
	for m := r.outBusy; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		if bu := r.Out[o].busyUntil; bu > now {
			if bu < newNext {
				newNext = bu
			}
		} else {
			r.dirty |= 1 << uint(o)
			r.outBusy &^= 1 << uint(o)
		}
	}
	r.nextFree = newNext
}

// formRequests is the routing stage: for the ready heads of every input port
// that is not serializing a packet it fills reqs/reqMask and returns the mask
// of input ports holding at least one request.
//
// A head is routed by engine.Route unless its buffer holds a valid cache
// entry — expiry not reached, read set disjoint from the window — in which
// case the request still in its reqs slot is replayed and the engine, the
// head's resolution and the BlockedSince stamp are all skipped. The entry is
// the read set the Route call recorded on the router (rs). A valid entry
// implies the same head: every change of head (a push onto an empty buffer,
// FinishDrain, a fault drop) invalidates it, so BlockedSince was stamped when
// the entry was made. A decision that noted no expiry or drew randomness is
// never replayed.
//
// A busy input port is not validated, so the window it skips is banked in
// pendingDirty and joins the window of its first free cycle: an entry is
// always checked against every invalidation since it was last checked.
//
// The heads to route are resolved and stamped in batches of up to 32 before
// route decides them in the same (port, VC) order: their packets are
// independent loads, so a batch overlaps the cache misses that resolving
// each head just before its Route call would serialize. No Route call reads
// another head's packet, so the order of decisions, RNG draws and candidate
// memo entries is unchanged.
func (r *Router) formRequests(engine Engine, now int64, window uint64) (inPend uint64) {
	r.nCands, r.candOn = 0, true
	var heads [32]head
	nh := 0
	for pm := r.readyPorts; pm != 0; pm &= pm - 1 {
		ip := bits.TrailingZeros64(pm)
		inp := &r.In[ip]
		if inp.Busy(now) {
			r.pendingDirty[ip] |= window
			continue
		}
		d := window | r.pendingDirty[ip]
		r.pendingDirty[ip] = 0
		r.reqMask[ip] = 0
		for m := inp.ready; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			buf := &inp.VCs[vc]
			if r.cacheOn && now < buf.cExpire && buf.cMask&d == 0 {
				if buf.cOK { // replay: the reqs slot still holds the request
					r.reqMask[ip] |= 1 << uint(vc)
					inPend |= 1 << uint(ip)
				}
				continue
			}
			p := r.pkts.At(buf.Head())
			if p.BlockedSince < 0 {
				p.BlockedSince = now
			}
			if nh == len(heads) {
				inPend |= r.route(engine, heads[:], now)
				nh = 0
			}
			heads[nh] = head{p, buf, uint8(ip), uint8(vc)}
			nh++
		}
	}
	inPend |= r.route(engine, heads[:nh], now)
	r.nCands, r.candOn = 0, false
	return inPend
}

// head is a buffer head formRequests has resolved and not yet routed.
type head struct {
	p      *packet.Packet
	buf    *VCBuffer
	ip, vc uint8
}

// route asks the engine for the requests of a batch of heads, in order, and
// returns the input ports that gained one.
func (r *Router) route(engine Engine, hs []head, now int64) (inPend uint64) {
	for i := range hs {
		h := &hs[i]
		ip, vc, buf := int(h.ip), int(h.vc), h.buf
		r.rsMask, r.rsExpire = 0, 0
		rngBefore := r.rngDraws
		req, ok := engine.Route(r, InCtx{Port: ip, VC: vc, Kind: r.In[ip].Kind, Ring: int(buf.Ring)}, h.p, now)
		if r.cacheOn {
			buf.cMask, buf.cExpire, buf.cOK = r.rsMask, r.rsExpire, ok
			if r.rngDraws != rngBefore {
				// The decision consumed randomness; replaying it would
				// skip the draws and desynchronize the RNG stream.
				buf.cExpire = 0
			}
		}
		if ok {
			r.reqs[int(r.vcBase[ip])+vc] = req
			r.reqMask[ip] |= 1 << uint(vc)
			inPend |= 1 << uint(ip)
		}
	}
	return inPend
}

// allocate is the iterative separable switch allocator over the requests
// formRequests left in reqs/reqMask for the input ports in inPend; each winner
// is committed as it is granted. Commit order equals first-touch order:
// touchedOut lists outputs in the order the ascending input-port walk first
// nominated them, and within an output the candidate mask is read in
// ascending bit order. That order is physics — commits move credits and busy
// state the later iterations read, and the grant list is folded into every
// digest in sequence — so neither walk may be reordered.
func (r *Router) allocate(inPend uint64, now int64) {
	// outAvail starts as the non-busy outputs and loses each granted port:
	// port busy state only changes mid-cycle through grants, and outBusy is
	// exact for this cycle (see expireBusy).
	outAvail := ^r.outBusy & r.allOut
	for iter := 0; iter < r.AllocIters; iter++ {
		// Input arbitration: each unmatched input port nominates its
		// least-recently-served VC whose requested output is still free.
		r.touchedOut = r.touchedOut[:0]
		progress := false
		for pm := inPend; pm != 0; pm &= pm - 1 {
			ip := bits.TrailingZeros64(pm)
			base := int(r.vcBase[ip])
			best := -1
			var bestRk uint8
			for vm := r.reqMask[ip]; vm != 0; vm &= vm - 1 {
				vc := bits.TrailingZeros64(vm)
				if outAvail&(1<<r.reqs[base+vc].Out) == 0 {
					continue
				}
				if rk := r.inRank[base+vc]; best == -1 || rk < bestRk {
					best, bestRk = vc, rk
				}
			}
			if best < 0 {
				continue
			}
			out := r.reqs[base+best].Out
			r.candVC[ip] = int32(best)
			if r.outCandMask[out] == 0 {
				r.touchedOut = append(r.touchedOut, int32(out))
			}
			r.outCandMask[out] |= 1 << uint(ip)
			progress = true
		}
		if !progress {
			break
		}
		// Output arbitration: each free output grants its least-recently-
		// served requesting input.
		granted := false
		for _, out32 := range r.touchedOut {
			op := int(out32)
			cm := r.outCandMask[op]
			r.outCandMask[op] = 0
			if outAvail&(1<<uint(op)) == 0 {
				continue
			}
			row := r.outRow(op)
			best := -1
			var bestRk uint8
			for ; cm != 0; cm &= cm - 1 {
				ip := bits.TrailingZeros64(cm)
				if rk := row[ip]; best == -1 || rk < bestRk {
					best, bestRk = ip, rk
				}
			}
			if best < 0 {
				continue
			}
			vc := int(r.candVC[best])
			inPend &^= 1 << uint(best)
			outAvail &^= 1 << uint(op)
			grantRank(r.inRow(best), vc)
			grantRank(row, best)
			r.commit(best, vc, r.reqs[int(r.vcBase[best])+vc], now)
			granted = true
		}
		if !granted {
			break
		}
	}
}

// commit applies one allocation winner: the buffer starts draining, ports
// serialize for the packet duration, a credit is consumed, and the request's
// header side effects are applied.
func (r *Router) commit(ip, vc int, req Request, now int64) {
	inp := &r.In[ip]
	buf := &inp.VCs[vc]
	h := buf.Head()
	p := r.pkts.At(h)
	buf.BeginDrain()
	r.readyVCs-- // the head drains; anything queued behind it must wait
	inp.ready &^= 1 << uint(vc)
	if inp.ready == 0 {
		r.readyPorts &^= 1 << uint(ip)
	}
	size := int64(r.PktSize)
	inp.busyUntil = now + size
	out := &r.Out[req.Out]
	out.busyUntil = now + size
	// Credits and/or busy status of the output changed (ejection still goes
	// busy), and the port will cross back to free at now+size.
	r.dirty |= 1 << uint(req.Out)
	r.outBusy |= 1 << uint(req.Out)
	r.nextFree = min(r.nextFree, now+size)
	eject := out.Kind == topology.PortNode
	if !eject {
		out.Take(int(req.VC))
		if r.pb != nil && out.Kind == topology.PortGlobal {
			r.pbDirty = true
		}
	}
	if req.Has(SetGlobalMis) {
		p.GlobalMisrouted = true
	}
	if req.Has(SetLocalMis) {
		p.LocalMisrouted = true
		p.MisrouteGroup = int16(r.Group)
	}
	if req.Has(EnterRing) {
		p.OnRing = true
		p.Ring = req.Ring
	}
	if req.Has(ExitRing) {
		p.OnRing = false
		p.Ring = -1
		p.RingExits++
	}
	p.BlockedSince = -1
	r.grants = append(r.grants, Grant{InPort: ip, InVC: vc, Req: req, Pkt: h, Eject: eject})
}
