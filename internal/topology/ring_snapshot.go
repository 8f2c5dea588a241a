package topology

import (
	"ofar/internal/simcore"
)

// Ring snapshot support. Rings are rebuilt deterministically by New, but a
// fault can splice a dead router out mid-run (ReformWithout), and the splice
// edge need not correspond to any canonical link — so a restored network
// cannot re-derive its rings from the topology and must carry them verbatim.

const maxRingRouters = 1 << 22

// State walks the full ring state, including the derived per-router maps
// (which after a splice are no longer a pure function of Order: spliced-out
// routers hold -1 sentinels and splice edges can have no embedded port).
// Decoding overwrites the ring in place; its maps are sized to the network's
// router count, which the image must match. Structural bounds are validated
// (every index inside the router range, Order no longer than the maps);
// deeper invariants are the snapshot writer's responsibility and are
// protected by the payload checksum.
func (rg *Ring) State(c *simcore.Codec) error {
	routers := len(rg.next)
	simcore.Int(c, &rg.Offset)
	nOrder := c.Len(len(rg.Order), maxRingRouters)
	if c.Decoding() {
		if nOrder > routers {
			c.Fail("ring order of %d routers, network has %d", nOrder, routers)
			return c.Err()
		}
		rg.Order = make([]int, nOrder)
	}
	for i := range rg.Order {
		simcore.Int(c, &rg.Order[i])
		if r := rg.Order[i]; c.Decoding() && (r < 0 || r >= routers) {
			c.Fail("ring order entry %d outside [0,%d)", r, routers)
		}
	}
	c.Shape(routers, "ring maps")
	for i := range rg.next {
		simcore.Int(c, &rg.next[i])
		simcore.Int(c, &rg.pos[i])
		simcore.Int(c, &rg.port[i])
		c.Bool(&rg.glob[i])
		if c.Decoding() && (rg.next[i] < -1 || int(rg.next[i]) >= routers || rg.pos[i] < -1 || int(rg.pos[i]) >= routers) {
			c.Fail("ring map entry %d out of range", i)
		}
	}
	return c.Err()
}
