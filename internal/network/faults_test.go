package network

import (
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Fault-injection tests: schedule parsing/validation, degraded-mode routing,
// teardown accounting (conservation with an explicit Dropped term), ring
// re-formation, and bit-identical determinism across execution modes.

func TestParseFaultsSpec(t *testing.T) {
	fs, err := ParseFaults("link@5000:12:7, router@20000:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Cycle: 5000, Kind: FaultLink, Router: 12, Port: 7},
		{Cycle: 20000, Kind: FaultRouter, Router: 3},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(fs), len(want))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("fault %d: got %+v want %+v", i, fs[i], want[i])
		}
	}
	for _, bad := range []string{"link@5000:12", "router@1:2:3", "melt@1:2", "link@x:1:2", "5000:1:2"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []Fault{
		{Cycle: -1, Kind: FaultLink, Router: 0, Port: 2},  // negative cycle
		{Cycle: 10, Kind: "melt", Router: 0},              // unknown kind
		{Cycle: 10, Kind: FaultRouter, Router: 9999},      // router out of range
		{Cycle: 10, Kind: FaultLink, Router: 0, Port: 0},  // node port
		{Cycle: 10, Kind: FaultLink, Router: 0, Port: 99}, // port out of range
		{Cycle: 10, Kind: FaultLink, Router: -1, Port: 2}, // negative router
	}
	for i, f := range bad {
		cfg := DefaultConfig(2)
		cfg.Faults = []Fault{f}
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad fault %d (%+v) accepted", i, f)
		}
	}
	cfg := DefaultConfig(2)
	cfg.Faults = []Fault{
		{Cycle: 100, Kind: FaultLink, Router: 0, Port: cfg.P}, // first local port
		{Cycle: 200, Kind: FaultRouter, Router: 1},
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestGlobalLinkFaultDegradedDelivery: OFAR keeps delivering after a global
// link dies mid-run — misrouting is the degradation path — and the packet
// population stays conserved with the explicit Dropped term.
func TestGlobalLinkFaultDegradedDelivery(t *testing.T) {
	cfg := testConfig(OFAR)
	fs, err := GlobalLinkFaults(cfg, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	n.Run(2000)
	if n.FaultsApplied() != 1 {
		t.Fatalf("applied %d faults, want 1", n.FaultsApplied())
	}
	before := n.Stats.Delivered
	n.Run(6000)
	if n.Stats.Delivered == before {
		t.Fatal("OFAR stopped delivering after a single global-link fault")
	}
	if n.Stats.FaultReroutes == 0 {
		t.Error("no fault reroutes counted although the dead link carried minimal traffic")
	}
	if n.Stats.AffectedFlows() == 0 {
		t.Error("no affected flows recorded")
	}
	// A link fault (unlike a router fault) must not drop anything: in-flight
	// packets complete and everything else routes around.
	if n.Stats.Dropped != 0 {
		t.Errorf("link fault dropped %d packets; teardown should preserve them", n.Stats.Dropped)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The dead pair never carries traffic again: both directions stay Busy.
	f := fs[0]
	peer, peerPort := n.Routers[f.Router].Out[f.Port].Peer, int(n.Routers[f.Router].Out[f.Port].PeerPort)
	if !n.Routers[f.Router].OutputDead(f.Port) || !n.Routers[peer].OutputDead(peerPort) {
		t.Error("dead link has a live direction")
	}
}

// TestRouterFaultDropsAndConserves: a dying router loses its buffered
// packets and its nodes, every loss is accounted in Dropped, and the rest of
// the network keeps working.
func TestRouterFaultDropsAndConserves(t *testing.T) {
	cfg := testConfig(OFAR)
	cfg.Faults = []Fault{{Cycle: 1500, Kind: FaultRouter, Router: 3}}
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	n.Run(2000)
	if n.DeadRouters() != 1 {
		t.Fatalf("DeadRouters=%d, want 1", n.DeadRouters())
	}
	before := n.Stats.Delivered
	n.Run(6000)
	if n.Stats.Delivered == before {
		t.Fatal("network stopped delivering after one router died")
	}
	if n.Stats.Dropped == 0 {
		t.Error("router death dropped nothing (uniform traffic keeps addressing its dead nodes)")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRingSpliceAfterRouterFault: when a physical-ring router dies the ring
// re-forms over the survivors; the escape network keeps rescuing OFAR-L
// under worst-case overload, which only works if the shorter cycle is still
// deadlock-free and its credits were re-derived correctly.
func TestRingSpliceAfterRouterFault(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Routing = OFARL
	cfg.Ring = RingPhysical
	probe := mustNet(t, cfg)
	w := probe.Rings[0].Order[2]
	prev := probe.Rings[0].Order[1]
	next := probe.Rings[0].Order[3]

	cfg.Faults = []Fault{{Cycle: 2000, Kind: FaultRouter, Router: w}}
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(2500)

	rg := n.Rings[0]
	if rg.Pos(w) >= 0 {
		t.Fatal("dead router still on the ring")
	}
	if got := rg.Next(prev); got != next {
		t.Fatalf("splice: ring successor of %d is %d, want %d", prev, got, next)
	}
	ringPort := n.Topo.RouterPorts
	if po := &n.Routers[prev].Out[ringPort]; int(po.Peer) != next || int(po.PeerPort) != ringPort {
		t.Fatalf("splice: predecessor port targets %d:%d, want %d:%d", po.Peer, po.PeerPort, next, ringPort)
	}

	// The re-formed escape network must keep the saturated network alive.
	before := n.Stats.Delivered
	n.Run(6000)
	if n.Stats.Delivered == before {
		t.Fatal("network stopped delivering after the ring was re-formed")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestCreditConservationAfterLinkFault: drain the network after a link fault
// and require every *live* output port's credits to be fully restored (dead
// ports are frozen by design and skipped by checkDrainedCredits).
func TestCreditConservationAfterLinkFault(t *testing.T) {
	cfg := testConfig(OFAR)
	fs, err := GlobalLinkFaults(cfg, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	n.Run(2000)
	n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 0, n.Topo.Nodes)) // stop generating
	for i := 0; i < 100000 && n.BufferedPackets()+n.InFlightPackets()+n.PendingPackets() > 0; i++ {
		n.Step()
	}
	if left := n.BufferedPackets() + n.InFlightPackets() + n.PendingPackets(); left != 0 {
		t.Fatalf("faulted network did not drain: %d packets left", left)
	}
	n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
	checkDrainedCredits(t, n)
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsBitIdentical is the determinism contract under faults: a run
// with a mixed link+router schedule must produce identical per-cycle grant
// digests, drop counts and reroute counts for Workers ∈ {0,1,4,8}.
func TestFaultsBitIdentical(t *testing.T) {
	cycles := 2500
	if testing.Short() {
		cycles = 800
	}
	base := DefaultConfig(2)
	base.Routing = OFAR
	base.Ring = RingPhysical
	probe := mustNet(t, base)
	onRing := probe.Rings[0].Order[4]
	// All three faults fire inside the first 500 cycles so the -short run
	// (800 cycles) still exercises every teardown path.
	base.Faults = []Fault{
		{Cycle: 150, Kind: FaultLink, Router: 0, Port: probe.Topo.GlobalPortBase()},
		{Cycle: 300, Kind: FaultLink, Router: 3, Port: probe.Topo.LocalPortBase()},
		{Cycle: 450, Kind: FaultRouter, Router: onRing},
	}

	mk := func(workers int) *Network {
		cfg := base
		cfg.Workers = workers
		n := mustNet(t, cfg)
		n.SetGenerator(genFor(n, "uniform", 0.5))
		n.EnableGrantDigest()
		n.Stats.StartMeasurement(0)
		return n
	}
	ref := mk(0)
	variants := map[string]*Network{
		"workers1": mk(1),
		"workers4": mk(4),
		"workers8": mk(8),
	}

	stepCompare(t, ref, variants, cycles)

	if ref.Stats.Dropped == 0 {
		t.Fatal("schedule dropped nothing — the case exercised no teardown accounting")
	}
	if err := ref.CheckConservation(); err != nil {
		t.Fatalf("reference: %v", err)
	}
	for name, v := range variants {
		if v.Stats.Dropped != ref.Stats.Dropped || v.Stats.FaultReroutes != ref.Stats.FaultReroutes ||
			v.Stats.Generated != ref.Stats.Generated || v.Stats.Delivered != ref.Stats.Delivered {
			t.Fatalf("%s diverged: drop/reroute/gen/del %d/%d/%d/%d vs reference %d/%d/%d/%d",
				name, v.Stats.Dropped, v.Stats.FaultReroutes, v.Stats.Generated, v.Stats.Delivered,
				ref.Stats.Dropped, ref.Stats.FaultReroutes, ref.Stats.Generated, ref.Stats.Delivered)
		}
		if err := v.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBaselineMINStallsOnDeadMinimalPath documents the baselines' contract:
// MIN has no degradation path, so flows whose only minimal route crosses the
// dead link stop arriving — but their packets must back-pressure, not leak.
func TestBaselineMINStallsOnDeadMinimalPath(t *testing.T) {
	cfg := testConfig(MIN)
	fs, err := GlobalLinkFaults(cfg, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, cfg.PacketSize))
	n.Run(5000)
	if n.Stats.Dropped != 0 {
		t.Errorf("MIN dropped %d packets after a link fault; they must stall in place", n.Stats.Dropped)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalLinkFaultsHelper pins the schedule builder the degradation
// experiment uses: deterministic order, each link once, correct kind/ports.
func TestGlobalLinkFaultsHelper(t *testing.T) {
	cfg := DefaultConfig(2)
	fs, err := GlobalLinkFaults(cfg, 123, 5)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for i, f := range fs {
		if f.Cycle != 123 || f.Kind != FaultLink {
			t.Fatalf("fault %d: %+v", i, f)
		}
		kind, peer, peerPort := topo.Peer(f.Router, f.Port)
		if kind != topology.PortGlobal {
			t.Fatalf("fault %d targets a %v port", i, kind)
		}
		key := [2]int{f.Router*topo.RouterPorts + f.Port, peer*topo.RouterPorts + peerPort}
		rev := [2]int{key[1], key[0]}
		if seen[key] || seen[rev] {
			t.Fatalf("fault %d repeats a link", i)
		}
		seen[key] = true
	}
	if _, err := GlobalLinkFaults(cfg, 0, 1<<20); err == nil {
		t.Error("impossible link count accepted")
	}
}
