package network

import (
	"bytes"
	"testing"

	"ofar/internal/traffic"
)

// Path-length invariants: every mechanism has a provable bound on the
// number of canonical (non-escape) hops a packet may take. Violations would
// indicate broken routing or flag lifecycles.

func maxHopsRun(t *testing.T, cfg Config, load float64) (maxTotal, maxCanonical int, ringEnters int64) {
	t.Helper()
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
	n.Stats.StartMeasurement(0)
	n.Run(6000)
	if n.Stats.MeasuredPackets() == 0 {
		t.Fatal("no deliveries to measure")
	}
	return n.Stats.MaxHops(), n.Stats.MaxCanonicalHops(), n.Stats.RingEnters
}

func TestHopBoundMIN(t *testing.T) {
	maxT, _, _ := maxHopsRun(t, testConfig(MIN), 0.3)
	if maxT > 3 {
		t.Errorf("MIN packet took %d hops, diameter is 3", maxT)
	}
}

func TestHopBoundVAL(t *testing.T) {
	maxT, _, _ := maxHopsRun(t, testConfig(VAL), 0.3)
	if maxT > 5 {
		t.Errorf("VAL packet took %d hops, bound is 5", maxT)
	}
}

func TestHopBoundPBUGAL(t *testing.T) {
	for _, rt := range []Routing{PB, UGAL} {
		maxT, _, _ := maxHopsRun(t, testConfig(rt), 0.3)
		if maxT > 5 {
			t.Errorf("%s packet took %d hops, bound is 5", rt, maxT)
		}
	}
}

func TestHopBoundPAR(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = PAR
	cfg.Ring = RingNone
	cfg.LocalVCs, cfg.InjVCs = 4, 4
	maxT, _, _ := maxHopsRun(t, cfg, 0.3)
	// PAR path: l - l - g - l - g - l = 6 hops max.
	if maxT > 6 {
		t.Errorf("PAR packet took %d hops, bound is 6", maxT)
	}
}

// TestHopBoundOFAR: between ring visits OFAR paths are bounded by 8
// canonical hops (2 global + 6 local, §IV-A); each ring exit restarts a
// minimal (≤3 hops, possibly +1 local detour per group) segment. With no
// ring usage the 8-hop bound must hold outright.
func TestHopBoundOFAR(t *testing.T) {
	cfg := testConfig(OFAR)
	maxT, maxCan, ringEnters := maxHopsRun(t, cfg, 0.25)
	if ringEnters == 0 && maxT > 8 {
		t.Errorf("OFAR packet took %d hops without ring usage, bound is 8", maxT)
	}
	bound := 8 + 4*cfg.OFAR.MaxRingExits
	if maxCan > bound {
		t.Errorf("OFAR packet took %d canonical hops, bound is %d", maxCan, bound)
	}
}

// TestHopBoundOFARUnderStress: the canonical-hop bound holds under
// adversarial overload too (where the ring is exercised).
func TestHopBoundOFARUnderStress(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 0.8, cfg.PacketSize))
	n.Stats.StartMeasurement(0)
	n.Run(8000)
	bound := 8 + 4*cfg.OFAR.MaxRingExits
	if got := n.Stats.MaxCanonicalHops(); got > bound {
		t.Errorf("OFAR canonical hops %d exceed bound %d", got, bound)
	}
}

// TestMisrouteFlagLifecycle: OFAR's misroute counters can never exceed one
// global misroute per packet — the global counter is bounded by deliveries
// plus in-flight packets.
func TestMisrouteFlagLifecycle(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
	n.Run(6000)
	if n.Stats.GlobalMisroutes > n.Stats.Generated {
		t.Errorf("global misroutes %d exceed generated packets %d (flag lifecycle broken)",
			n.Stats.GlobalMisroutes, n.Stats.Generated)
	}
	// Local misroutes are bounded by one per group visit: ≤ 3 group visits
	// per canonical path (+ ring exits), so ≤ ~4x generated is a loose but
	// sound sanity bound.
	if n.Stats.LocalMisroutes > 4*n.Stats.Generated {
		t.Errorf("local misroutes %d exceed 4x generated %d",
			n.Stats.LocalMisroutes, n.Stats.Generated)
	}
}

// TestConservationUnderRandomFaults: whatever valid schedule is thrown at
// the network — links and routers, early and late, clustered or spread —
// Generated == Delivered + Dropped + in-network holds at every scale tried.
func TestConservationUnderRandomFaults(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := testConfig(OFAR)
		cfg.Seed = seed
		// Derive a small deterministic schedule from the seed: two link
		// faults and one router fault at staggered cycles.
		topoPorts := cfg.P + cfg.A - 1 + cfg.H
		routers := (cfg.A*cfg.H + 1) * cfg.A
		linkPorts := topoPorts - cfg.P // local+global ports per router
		x := seed * 2654435761
		pick := func(k uint64, mod int) int { return int((x >> (8 * k)) % uint64(mod)) }
		cfg.Faults = []Fault{
			{Cycle: 200 + int64(pick(0, 800)), Kind: FaultLink,
				Router: pick(1, routers), Port: cfg.P + pick(2, linkPorts)},
			{Cycle: 200 + int64(pick(3, 800)), Kind: FaultLink,
				Router: pick(4, routers), Port: cfg.P + pick(5, linkPorts)},
			{Cycle: 1000 + int64(pick(6, 500)), Kind: FaultRouter, Router: pick(7, routers)},
		}
		n, err := New(cfg)
		if err != nil {
			// A schedule may name an unwired global port; that is a clean
			// validation error, not a conservation case.
			continue
		}
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
		for c := 0; c < 4000; c++ {
			n.Step()
			checkPendBits(t, "random faults", n)
		}
		if err := n.CheckConservation(); err != nil {
			t.Errorf("seed %d (faults %+v): %v", seed, cfg.Faults, err)
		}
		if n.Stats.Delivered == 0 {
			t.Errorf("seed %d: nothing delivered", seed)
		}
		n.Close()
	}
}

// TestRingEnterExitBalance: packets on the ring either exit or get
// delivered from it; the enter/exit difference is bounded by the packets
// currently riding.
func TestRingEnterExitBalance(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(8000)
	onRing := int64(0)
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				if r.In[i].VCs[vc].Ring >= 0 {
					onRing += int64(r.In[i].VCs[vc].Len())
				}
			}
		}
	}
	diff := n.Stats.RingEnters - n.Stats.RingExits
	// Exits lag enters by the riders (plus packets delivered directly from
	// the ring, which count as exits in our accounting via ExitRing on the
	// eject request — so diff should equal riders, modulo in-flight).
	if diff < 0 {
		t.Errorf("more ring exits (%d) than enters (%d)", n.Stats.RingExits, n.Stats.RingEnters)
	}
	if diff > onRing+int64(n.InFlightPackets()) {
		t.Errorf("ring accounting: enters-exits=%d but only %d riders + %d in flight",
			diff, onRing, n.InFlightPackets())
	}
}

// checkPendBits asserts the injection front-end's derived state: bit i of
// group g's bitset is set exactly when pending[g·groupNodes+i] holds a packet,
// and no bit beyond the group's nodes is ever set.
func checkPendBits(t testing.TB, label string, n *Network) {
	t.Helper()
	for g := range n.gs {
		for i := 0; i < 64*len(n.gs[g].pend); i++ {
			set := n.gs[g].pend[i>>6]>>uint(i&63)&1 == 1
			want := i < n.groupNodes && n.pending[g*n.groupNodes+i].len() > 0
			if set != want {
				t.Fatalf("%s: cycle %d group %d node slot %d: pend bit %v, queue non-empty %v",
					label, n.now, g, i, set, want)
			}
		}
	}
}

// TestPendBitsTrackQueues steps networks whose source queues fill, back up
// against PendingCap, drain and are dropped by a router fault, and checks the
// bitset against the queues after every cycle, after Restore and after Fork.
func TestPendBitsTrackQueues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		load    float64
		workers int
	}{{"low", 0.05, 1}, {"overload", 1.0, 1}, {"overload_pool", 1.0, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapCfg(tc.workers)
			cfg.PendingCap = 3
			cfg.Faults = []Fault{{Cycle: 400, Kind: FaultRouter, Router: 5}}
			n := mustPoolNet(t, cfg)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), tc.load, cfg.PacketSize))
			var snap []byte
			for c := 0; c < 800; c++ {
				if c == 399 {
					if tc.load == 1.0 && n.pending[n.Topo.NodeAt(5, 0)].len() == 0 {
						t.Fatal("the dying router's sources hold no pending packets: the fault drop is not exercised")
					}
					snap = snapshotBytes(t, n)
				}
				n.Step()
				checkPendBits(t, "step", n)
			}
			if tc.load == 1.0 && n.Stats.SourceBlocked == 0 {
				t.Fatal("PendingCap never reached: the retract path is not exercised")
			}

			// Restore into a network whose own bits are stale in both
			// directions (it ran a different load to a different cycle).
			m := mustPoolNet(t, cfg)
			m.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(m.Topo, m.Topo.H), tc.load, cfg.PacketSize))
			m.Run(450)
			if err := m.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			checkPendBits(t, "restore", m)
			f, err := m.Fork()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			checkPendBits(t, "fork", f)
			for c := 0; c < 100; c++ { // across the router fault again
				m.Step()
				f.Step()
				checkPendBits(t, "restored step", m)
				checkPendBits(t, "forked step", f)
			}
		})
	}
}
