package network

import (
	"runtime"
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// pathKey names a packet in the grant log: a source generates at most one
// packet per cycle, so its node and generation cycle identify it.
type pathKey struct {
	src  int
	born int64
}

// grantPaths groups n's grant log into packet paths, each in grant order. It
// fails if the log filled to its cap: the paths would be cut short.
func grantPaths(t *testing.T, n *Network) map[pathKey][]GrantEvent {
	t.Helper()
	log := n.GrantLog()
	if len(log) >= n.logCap {
		t.Fatalf("grant log filled to its cap of %d events", n.logCap)
	}
	paths := make(map[pathKey][]GrantEvent)
	for _, e := range log {
		k := pathKey{e.Src, e.Born}
		paths[k] = append(paths[k], e)
	}
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
	cur := d.RouterOf(hops[0].Src)
	for i, hop := range hops {
		if hop.Router != cur {
			t.Fatalf("hop %d at router %d, expected %d (path %d->%d: %+v)",
				i, hop.Router, cur, hop.Src, hop.Dst, hops)
		}
		if i > 0 && hop.Cycle <= hops[i-1].Cycle {
			t.Fatalf("hop %d granted at cycle %d, not after hop %d's %d", i, hop.Cycle, i-1, hops[i-1].Cycle)
		}
		if hop.Out >= d.RouterPorts {
			// Physical ring port: the next router is the ring successor.
			cur = n.Rings[hop.Out-d.RouterPorts].Next(hop.Router)
			continue
		}
		kind, peer, _ := d.Peer(hop.Router, hop.Out)
		switch kind {
		case topology.PortNode:
			if i != len(hops)-1 {
				t.Fatalf("ejected mid-route at hop %d", i)
			}
			if peer != hop.Dst || !hop.Eject {
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

// TestGrantLogGrowsOnDemand: EnableGrantLog's cap bounds the log without
// reserving it — a 1<<20-event cap (80 MiB if reserved) costs almost nothing
// up front — and the log still stops at its cap.
func TestGrantLogGrowsOnDemand(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n.EnableGrantLog(1 << 20)
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b >= 64<<10 {
		t.Fatalf("EnableGrantLog(1<<20) allocated %d bytes up front, want < 64 KiB", b)
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	n.Run(300)
	if got := len(n.GrantLog()); got == 0 || got >= 1<<20 {
		t.Fatalf("%d events logged in 300 cycles under a 1<<20 cap", got)
	}
	m := mustNet(t, cfg)
	m.EnableGrantLog(10)
	m.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(m.Topo), 0.3, cfg.PacketSize))
	m.Run(300)
	if got := len(m.GrantLog()); got != 10 {
		t.Fatalf("%d events logged under a cap of 10", got)
	}
}

// TestTracedPathsAreValid drives every mechanism under adversarial traffic
// from cycle 0 with the grant log on, validates every packet's path edge by
// edge, and checks that the paths ejected more than one packet time before
// the end are exactly the delivered packets.
func TestTracedPathsAreValid(t *testing.T) {
	const cycles = 3000
	for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := testConfig(rt)
			n := mustNet(t, cfg)
			n.EnableGrantLog(1 << 17)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 0.5, cfg.PacketSize))
			n.Run(cycles)
			ejected := 0
			for _, hops := range grantPaths(t, n) {
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
			return e.Out >= n.Topo.RouterPorts
		}},
		{"embedded", embedded, func(n *Network, e GrantEvent) bool {
			return n.Routers[e.Router].Out[e.Out].EscapeRing(e.VC) >= 0
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := mustNet(t, c.cfg)
			n.EnableGrantLog(1 << 17)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, c.cfg.PacketSize))
			n.Run(3000)
			escapes := int64(0)
			for _, hops := range grantPaths(t, n) {
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
