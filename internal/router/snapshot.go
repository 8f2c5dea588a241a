package router

import (
	"ofar/internal/packet"
	"ofar/internal/simcore"
)

// Snapshot support. State visits everything a Cycle call can mutate plus the
// structural fields that fault surgery rewrites mid-run (peer wiring, link
// latencies, dead flags, ring-out ports): a restored network must not replay
// faults to rebuild them. The route cache is deliberately NOT serialized — it
// is pure memoization, and decoding performs a cache-cold reset instead.
// Cache-on and cache-off runs are bit-identical by construction, so resuming
// cache-cold from a snapshot taken cache-warm continues the exact same
// trajectory.

const (
	maxSnapQueue   = 1 << 24 // packets queued in one VC buffer
	maxSnapLatency = 1 << 30
)

// Board returns the group-shared PB flag board, or nil when the routing
// mechanism does not use piggybacking. The network snapshot uses it to
// serialize each board exactly once per group.
func (r *Router) Board() *FlagBoard { return r.pb }

// ForEachPacket visits every packet stored in this router's input buffers,
// including draining heads. The network snapshot uses it to build the
// deduplicated packet table.
func (r *Router) ForEachPacket(f func(packet.Handle)) {
	for i := range r.In {
		for vc := range r.In[i].VCs {
			buf := &r.In[i].VCs[vc]
			for j := range buf.Len() {
				f(buf.q[buf.slot(j)])
			}
		}
	}
}

// State walks the router's full mutable state. Queued packets are visited
// as references into the network's packet table, so aliased references — a
// committed head also in flight as an arrival event — decode to one packet.
// now is the simulation time, which decoding needs to rebuild the route
// cache's busy-port view. Decoding recomputes the derived state (occupancy,
// ready bitsets, canonical credit aggregates, the entire route cache), and
// the cache restarts cold.
func (r *Router) State(c *simcore.Codec, pkts *packet.Refs, now int64) error {
	dec := c.Decoding()
	c.RNG(r.rng)
	c.Shape(len(r.In), "router ports")
	for i := range r.In {
		for _, row := range [2][]uint8{r.inRow(i), r.outRow(i)} {
			c.Shape(len(row), "arbiter inputs")
			for j := range row {
				c.U8(&row[j])
			}
			if dec && c.Err() == nil && !validRanks(row) {
				c.Fail("router %d port %d: arbiter ranks %v are not a permutation", r.ID, i, row)
			}
		}
	}
	if dec {
		r.occPkts, r.readyPorts = 0, 0
	}
	for i := range r.In {
		inp := &r.In[i]
		simcore.Int(c, &inp.busyUntil)
		simcore.Int(c, &inp.UpRouter)
		simcore.Int(c, &inp.UpPort)
		c.Shape(len(inp.VCs), "input VCs")
		if dec {
			inp.ready = 0
		}
		for vc := range inp.VCs {
			buf := &inp.VCs[vc]
			nq := c.Len(buf.Len(), maxSnapQueue)
			if dec {
				buf.Init(int(buf.Capacity), int(buf.Ring))
			}
			for j := range nq {
				var h packet.Handle
				if !dec {
					h = buf.q[buf.slot(j)]
				}
				pkts.Ref(c, &h)
				if dec {
					if c.Err() != nil {
						return c.Err()
					}
					if buf.Free() < 1 {
						c.Fail("router %d port %d vc %d overflows capacity %d", r.ID, i, vc, buf.Capacity)
						return c.Err()
					}
					buf.Push(h)
				}
			}
			c.Bool(&buf.draining)
			if dec {
				if buf.draining && buf.n == 0 {
					c.Fail("router %d port %d vc %d draining while empty", r.ID, i, vc)
				}
				if buf.Ring < 0 {
					r.occPkts += buf.Len()
				}
				if buf.n > 0 && !buf.draining {
					inp.ready |= 1 << uint(vc)
				}
			}
		}
		if dec && inp.ready != 0 {
			r.readyPorts |= 1 << uint(i)
		}
		if err := c.Err(); err != nil {
			return err
		}
	}
	S := int64(r.PktSize)
	for i := range r.Out {
		op := &r.Out[i]
		simcore.Int(c, &op.busyUntil)
		c.Bool(&op.dead)
		simcore.Int(c, &op.Peer)
		simcore.Int(c, &op.PeerPort)
		simcore.Int(c, &op.Latency)
		if dec && (op.Latency < 0 || op.Latency > maxSnapLatency) {
			c.Fail("router %d port %d latency %d out of range", r.ID, i, op.Latency)
		}
		c.Shape(len(op.vcs), "output VCs")
		if dec {
			op.canCredits = 0
		}
		for vc := range op.vcs {
			v := &op.vcs[vc]
			phits := int64(v.credits) * S // the image keeps credits in phits
			simcore.Int(c, &phits)
			if !dec {
				continue
			}
			if phits%S != 0 || phits < 0 || phits > int64(v.cap)*S {
				c.Fail("router %d out port %d vc %d: %d phits of credit, not a multiple of the %d-phit packet in [0,%d]",
					r.ID, i, vc, phits, S, int64(v.cap)*S)
				return c.Err()
			}
			v.credits = int32(phits / S)
			if v.ring < 0 {
				op.canCredits += v.credits
			}
		}
		if err := c.Err(); err != nil {
			return err
		}
	}
	c.Bool(&r.pbDirty)
	c.Shape(len(r.ringOuts), "ring outputs")
	for i := range r.ringOuts {
		simcore.Int(c, &r.ringOuts[i])
		if po := r.ringOuts[i]; dec && (po < -1 || int(po) >= len(r.Out)) {
			c.Fail("router %d ring out %d = %d out of range", r.ID, i, po)
		}
	}
	if err := c.Err(); err != nil || !dec {
		return err
	}
	// Cold restart of the memoization layer: no cached decisions, every
	// output dirty, busy view rebuilt from the restored serialization
	// deadlines: expireBusy keeps the ports still busy at now.
	r.dirty, r.outBusy = r.allOut, r.allOut
	clear(r.pendingDirty)
	r.rngDraws = 0
	r.expireBusy(now)
	return nil
}

// State walks the board's full state. Geometry (links, delay) must match
// the board being restored into.
func (fb *FlagBoard) State(c *simcore.Codec) error {
	c.Shape(fb.delay, "flag board delay")
	c.Shape(fb.links, "flag board links")
	for l := 0; l < fb.links; l++ {
		c.Bool(&fb.cur[l])
		simcore.Int(c, &fb.curAt[l])
	}
	for _, row := range fb.hist {
		for l := range row {
			c.Bool(&row[l])
		}
	}
	return c.Err()
}
