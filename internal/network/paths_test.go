package network

import (
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// pathKey names a packet by its grants: a source generates at most one
// packet per cycle, so its node and generation cycle identify it.
type pathKey struct {
	src  int32
	born int64
}

// grantPaths attaches an observer to n that groups its grants into packet
// paths as they stream, each in grant order, and returns the paths it fills.
func grantPaths(n *Network) map[pathKey][]GrantEvent {
	paths := make(map[pathKey][]GrantEvent)
	n.obs = grantFunc(func(e GrantEvent) {
		k := pathKey{e.Src, e.Born}
		paths[k] = append(paths[k], e)
	})
	return paths
}

// validatePath walks one packet's granted hops edge by edge against the
// topology: every hop must leave the router the previous one reached, over a
// real link of that router, one cycle or more after the previous grant, and
// an ejection must be the last hop and reach the packet's destination. It
// reports whether the path ended in an ejection.
func validatePath(t *testing.T, n *Network, hops []GrantEvent) bool {
	t.Helper()
	d := n.Topo
	cur := d.RouterOf(int(hops[0].Src))
	for i, hop := range hops {
		if int(hop.Router) != cur {
			t.Fatalf("hop %d at router %d, expected %d (path %d->%d: %+v)",
				i, hop.Router, cur, hop.Src, hop.Dst, hops)
		}
		if i > 0 && hop.Cycle <= hops[i-1].Cycle {
			t.Fatalf("hop %d granted at cycle %d, not after hop %d's %d", i, hop.Cycle, i-1, hops[i-1].Cycle)
		}
		if int(hop.Out) >= d.RouterPorts {
			// Physical ring port: the next router is the ring successor.
			cur = n.Rings[int(hop.Out)-d.RouterPorts].Next(int(hop.Router))
			continue
		}
		kind, peer, _ := d.Peer(int(hop.Router), int(hop.Out))
		switch kind {
		case topology.PortNode:
			if i != len(hops)-1 {
				t.Fatalf("ejected mid-route at hop %d", i)
			}
			if peer != int(hop.Dst) || !hop.Eject {
				t.Fatalf("ejected to node %d (eject flag %v), want %d", peer, hop.Eject, hop.Dst)
			}
			return true
		case topology.PortNone:
			t.Fatalf("hop %d used an unwired port", i)
		default:
			cur = peer
		}
	}
	return false
}

// TestTracedPathsAreValid drives every mechanism under adversarial traffic
// from cycle 0 with its grants observed, validates every packet's path edge by
// edge, and checks that the paths ejected more than one packet time before
// the end are exactly the delivered packets.
func TestTracedPathsAreValid(t *testing.T) {
	const cycles = 3000
	for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := testConfig(rt)
			n := mustNet(t, cfg)
			paths := grantPaths(n)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 0.5, cfg.PacketSize))
			n.Run(cycles)
			ejected := 0
			for _, hops := range paths {
				if validatePath(t, n, hops) && hops[len(hops)-1].Cycle < cycles-int64(cfg.PacketSize) {
					ejected++
				}
			}
			if ejected < 10 || int64(ejected) != n.Stats.Delivered {
				t.Fatalf("%d paths ejected before cycle %d, %d packets delivered", ejected, cycles-cfg.PacketSize, n.Stats.Delivered)
			}
		})
	}
}

// TestTraceEscapeHopsMarked: under overload OFAR moves packets onto the
// escape ring, and the grants onto escape channels — ring ports on a
// physical ring, escape VCs of canonical ports on embedded rings — are
// exactly the ring entries and in-ring hops the statistics count.
func TestTraceEscapeHopsMarked(t *testing.T) {
	embedded := testConfig(OFAR)
	embedded.Ring, embedded.NumRings = RingEmbedded, 2
	for _, c := range []struct {
		name   string
		cfg    Config
		escape func(n *Network, e GrantEvent) bool
	}{
		{"physical", testConfig(OFAR), func(n *Network, e GrantEvent) bool {
			return int(e.Out) >= n.Topo.RouterPorts
		}},
		{"embedded", embedded, func(n *Network, e GrantEvent) bool {
			return n.Routers[e.Router].Out[e.Out].EscapeRing(int(e.VC)) >= 0
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := mustNet(t, c.cfg)
			paths := grantPaths(n)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, c.cfg.PacketSize))
			n.Run(3000)
			escapes := int64(0)
			for _, hops := range paths {
				for _, e := range hops {
					if c.escape(n, e) {
						escapes++
					}
				}
			}
			if want := n.Stats.RingEnters + n.Stats.RingHops; escapes == 0 || escapes != want {
				t.Fatalf("%d grants onto escape channels, %d ring entries + hops", escapes, want)
			}
		})
	}
}
