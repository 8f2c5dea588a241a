package router

import (
	"math"

	"ofar/internal/packet"
	"ofar/internal/simcore"
)

// Snapshot support. EncodeState writes everything a Cycle call can mutate
// plus the structural fields that fault surgery rewrites mid-run (peer
// wiring, link latencies, dead flags, ring-out ports): a restored network
// must not replay faults to rebuild them. The route cache is deliberately
// NOT serialized — it is pure memoization, and DecodeState performs a
// cache-cold reset instead. Cache-on and cache-off runs are bit-identical
// by construction, so resuming cache-cold from a snapshot taken cache-warm
// continues the exact same trajectory.

const (
	maxSnapVCs     = 64      // mirrors config validation (≤64 VCs/ports)
	maxSnapPorts   = 64      //
	maxSnapQueue   = 1 << 24 // packets queued in one VC buffer
	maxBoardLinks  = 1 << 20
	maxBoardDelay  = 1 << 16
	maxSnapRings   = 1 << 16
	maxSnapLatency = 1 << 30
)

// Board returns the group-shared PB flag board, or nil when the routing
// mechanism does not use piggybacking. The network snapshot uses it to
// serialize each board exactly once per group.
func (r *Router) Board() *FlagBoard { return r.pb }

// ForEachPacket visits every packet stored in this router's input buffers,
// including draining heads. The network snapshot uses it to build the
// deduplicated packet table.
func (r *Router) ForEachPacket(f func(*packet.Packet)) {
	for i := range r.In {
		for vc := range r.In[i].VCs {
			buf := &r.In[i].VCs[vc]
			for j := range buf.n {
				f(buf.q[buf.slot(j)])
			}
		}
	}
}

// EncodeState appends the router's full mutable state to e.
func (r *Router) EncodeState(e *simcore.Enc) {
	for _, s := range r.rng.State() {
		e.U64(s)
	}
	n := len(r.In)
	e.Int(n)
	for i := 0; i < n; i++ {
		e.Int(len(r.inArb[i].lastServed))
		for _, t := range r.inArb[i].lastServed {
			e.I64(t)
		}
		e.Int(len(r.outArb[i].lastServed))
		for _, t := range r.outArb[i].lastServed {
			e.I64(t)
		}
	}
	for i := range r.In {
		inp := &r.In[i]
		e.I64(inp.busyUntil)
		e.Int(inp.UpRouter)
		e.Int(inp.UpPort)
		e.Int(len(inp.VCs))
		for vc := range inp.VCs {
			buf := &inp.VCs[vc]
			e.Int(buf.Len())
			for j := range buf.n {
				e.U64(uint64(buf.q[buf.slot(j)].ID))
			}
			e.Bool(buf.draining)
		}
	}
	for i := range r.Out {
		op := &r.Out[i]
		e.I64(op.busyUntil)
		e.Bool(op.dead)
		e.Int(op.Peer)
		e.Int(op.PeerPort)
		e.Int(op.Latency)
		e.Int(len(op.credits))
		for _, c := range op.credits {
			e.Int(c)
		}
	}
	e.Bool(r.pbDirty)
	e.Int(len(r.ringOuts))
	for _, po := range r.ringOuts {
		e.I64(int64(po))
	}
}

// DecodeState overwrites the router's mutable state from d. pkt resolves a
// packet ID to the restored packet instance (the network maintains the table
// so aliased references — a committed head also in flight as an arrival
// event — decode to one object). now is the restored simulation time, needed
// to rebuild the route cache's busy-port view. Derived state (occupancy,
// ready bitsets, canonical credit aggregates, the entire route cache) is
// recomputed, and the cache restarts cold.
func (r *Router) DecodeState(d *simcore.Dec, pkt func(id uint64) (*packet.Packet, error), now int64) error {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	if d.Err() == nil {
		if err := r.rng.SetState(st); err != nil {
			d.Fail("router %d rng: %v", r.ID, err)
		}
	}
	n := d.Int()
	if d.Err() == nil && n != len(r.In) {
		d.Fail("router %d has %d ports, snapshot has %d", r.ID, len(r.In), n)
	}
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < n; i++ {
		if ln := d.Len(maxSnapVCs); d.Err() == nil && ln != len(r.inArb[i].lastServed) {
			d.Fail("router %d inArb[%d] sized %d, snapshot %d", r.ID, i, len(r.inArb[i].lastServed), ln)
		}
		for vc := range r.inArb[i].lastServed {
			r.inArb[i].lastServed[vc] = d.I64()
		}
		if ln := d.Len(maxSnapPorts); d.Err() == nil && ln != len(r.outArb[i].lastServed) {
			d.Fail("router %d outArb[%d] sized %d, snapshot %d", r.ID, i, len(r.outArb[i].lastServed), ln)
		}
		for ip := range r.outArb[i].lastServed {
			r.outArb[i].lastServed[ip] = d.I64()
		}
		if d.Err() != nil {
			return d.Err()
		}
	}
	r.occPhits = 0
	r.readyVCs = 0
	r.readyPorts = 0
	for i := range r.In {
		inp := &r.In[i]
		inp.busyUntil = d.I64()
		inp.UpRouter = d.Int()
		inp.UpPort = d.Int()
		if nv := d.Len(maxSnapVCs); d.Err() == nil && nv != len(inp.VCs) {
			d.Fail("router %d port %d has %d VCs, snapshot %d", r.ID, i, len(inp.VCs), nv)
		}
		inp.ready = 0
		for vc := range inp.VCs {
			buf := &inp.VCs[vc]
			nq := d.Len(maxSnapQueue)
			if d.Err() != nil {
				return d.Err()
			}
			buf.Init(buf.Capacity, int(buf.Ring))
			for j := 0; j < nq; j++ {
				p, err := pkt(d.U64())
				if d.Err() != nil {
					return d.Err()
				}
				if err != nil {
					d.Fail("router %d port %d vc %d: %v", r.ID, i, vc, err)
					return d.Err()
				}
				if buf.occupied+p.Size > buf.Capacity {
					d.Fail("router %d port %d vc %d overflows capacity %d", r.ID, i, vc, buf.Capacity)
					return d.Err()
				}
				buf.Push(p)
			}
			buf.draining = d.Bool()
			if d.Err() == nil && buf.draining && buf.n == 0 {
				d.Fail("router %d port %d vc %d draining while empty", r.ID, i, vc)
			}
			if !buf.Escape {
				r.occPhits += buf.occupied
			}
			if buf.n > 0 && !buf.draining {
				r.readyVCs++
				inp.ready |= 1 << uint(vc)
			}
		}
		if inp.ready != 0 {
			r.readyPorts |= 1 << uint(i)
		}
		if d.Err() != nil {
			return d.Err()
		}
	}
	for i := range r.Out {
		op := &r.Out[i]
		op.busyUntil = d.I64()
		op.dead = d.Bool()
		op.Peer = d.Int()
		op.PeerPort = d.Int()
		op.Latency = d.Int()
		if d.Err() == nil && (op.Latency < 0 || op.Latency > maxSnapLatency) {
			d.Fail("router %d port %d latency %d out of range", r.ID, i, op.Latency)
		}
		if nv := d.Len(maxSnapVCs); d.Err() == nil && nv != len(op.credits) {
			d.Fail("router %d out port %d has %d VCs, snapshot %d", r.ID, i, len(op.credits), nv)
		}
		op.canCredits = 0
		for vc := range op.credits {
			c := d.Int()
			if d.Err() == nil && (c < 0 || c > op.vcCap[vc]) {
				d.Fail("router %d out port %d vc %d credits %d outside [0,%d]", r.ID, i, vc, c, op.vcCap[vc])
				return d.Err()
			}
			op.credits[vc] = c
			if op.escRing[vc] < 0 {
				op.canCredits += c
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
	}
	r.pbDirty = d.Bool()
	if nr := d.Len(maxSnapRings); d.Err() == nil && nr != len(r.ringOuts) {
		d.Fail("router %d has %d ring outs, snapshot %d", r.ID, len(r.ringOuts), nr)
	}
	for i := range r.ringOuts {
		po := d.I64()
		if d.Err() == nil && (po < -1 || po >= int64(len(r.Out))) {
			d.Fail("router %d ring out %d = %d out of range", r.ID, i, po)
		}
		r.ringOuts[i] = int32(po)
	}
	if d.Err() != nil {
		return d.Err()
	}
	if r.cacheOn {
		// Cold restart of the memoization layer: no cached decisions, every
		// output dirty, busy view rebuilt from the restored serialization
		// deadlines.
		r.dirty = r.allOut
		clear(r.pendingDirty)
		r.rngDraws = 0
		r.outBusy = 0
		r.nextFree = math.MaxInt64
		for o := range r.Out {
			if bu := r.Out[o].busyUntil; bu > now {
				r.outBusy |= 1 << uint(o)
				if bu < r.nextFree {
					r.nextFree = bu
				}
			}
		}
	}
	return d.Err()
}

// EncodeState appends the board's full state to e.
func (fb *FlagBoard) EncodeState(e *simcore.Enc) {
	e.Int(fb.delay)
	e.Int(fb.links)
	for l := 0; l < fb.links; l++ {
		e.Bool(fb.cur[l])
		e.I64(fb.curAt[l])
	}
	for _, row := range fb.hist {
		for _, v := range row {
			e.Bool(v)
		}
	}
}

// DecodeState overwrites the board state from d. Geometry (links, delay)
// must match the board being restored into.
func (fb *FlagBoard) DecodeState(d *simcore.Dec) error {
	delay, links := d.Len(maxBoardDelay), d.Len(maxBoardLinks)
	if d.Err() == nil && (delay != fb.delay || links != fb.links) {
		d.Fail("flag board %d links/delay %d, snapshot %d/%d", fb.links, fb.delay, links, delay)
	}
	if d.Err() != nil {
		return d.Err()
	}
	for l := 0; l < fb.links; l++ {
		fb.cur[l] = d.Bool()
		fb.curAt[l] = d.I64()
	}
	for i := range fb.hist {
		for l := range fb.hist[i] {
			fb.hist[i][l] = d.Bool()
		}
	}
	return d.Err()
}
