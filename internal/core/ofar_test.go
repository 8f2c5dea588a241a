package core

import (
	"testing"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// buildRouter constructs router `id` of topology d with paper-style
// profiles. withRing appends a physical escape-ring port (ring 0) whose
// successor is irrelevant for engine-level tests.
func buildRouter(t *testing.T, d *topology.Dragonfly, id int, withRing bool) *router.Router {
	t.Helper()
	n := d.RouterPorts
	if withRing {
		n++
	}
	specs := make([]router.PortSpec, n)
	for port := 0; port < d.RouterPorts; port++ {
		kind, peer, peerPort := d.Peer(id, port)
		ps := router.PortSpec{Kind: kind, Peer: peer, PeerPort: peerPort, UpRouter: peer, UpPort: peerPort, Latency: 10}
		switch kind {
		case topology.PortNode:
			ps.Peer, ps.PeerPort, ps.UpRouter, ps.UpPort = -1, -1, -1, -1
			ps.InCaps, ps.InRing = []int{4, 4, 4}, []int{-1, -1, -1}
			ps.OutCaps, ps.OutRing = []int{1}, []int{-1}
		case topology.PortLocal:
			ps.InCaps, ps.InRing = []int{4, 4, 4}, []int{-1, -1, -1}
			ps.OutCaps, ps.OutRing = []int{4, 4, 4}, []int{-1, -1, -1}
		case topology.PortGlobal:
			ps.Latency = 100
			ps.InCaps, ps.InRing = []int{32, 32}, []int{-1, -1}
			ps.OutCaps, ps.OutRing = []int{32, 32}, []int{-1, -1}
		}
		specs[port] = ps
	}
	var ringOuts []int
	if withRing {
		rp := d.RouterPorts
		specs[rp] = router.PortSpec{
			Kind: topology.PortRing, Peer: id, PeerPort: rp, UpRouter: id, UpPort: rp,
			Latency: 10,
			InCaps:  []int{4, 4, 4}, InRing: []int{0, 0, 0},
			OutCaps: []int{4, 4, 4}, OutRing: []int{0, 0, 0},
		}
		ringOuts = []int{rp}
	}
	return router.New(router.Params{
		ID: id, Topo: d, PktSize: 8, AllocIters: 3,
		RNG: simcore.NewRNG(uint64(id) + 3), Ports: specs, RingOuts: ringOuts,
		Packets: &testPackets,
	})
}

// testPackets is the packet store of every router buildRouter builds.
var testPackets packet.Store

func newPkt(d *topology.Dragonfly, src, dst int) *packet.Packet {
	p := &packet.Packet{}
	p.Reset()
	p.Src, p.Dst = int32(src), int32(dst)
	p.SrcGroup, p.DstGroup = int16(d.GroupOfNode(src)), int16(d.GroupOfNode(dst))
	return p
}

// arrive stores a copy of p on (port, vc) of rt, a router buildRouter
// built, in a fresh slot of testPackets.
func arrive(rt *router.Router, port, vc int, p *packet.Packet) {
	pool := packet.NewPool(&testPackets)
	h := pool.Alloc()
	*testPackets.At(h) = *p
	rt.Arrive(port, vc, h)
}

// saturatePort exhausts every canonical VC of an output port.
func saturatePort(rt *router.Router, port int) {
	op := &rt.Out[port]
	for vc := 0; vc < op.NumVCs(); vc++ {
		if op.EscapeRing(vc) < 0 {
			op.SetCredits(vc, 0)
		}
	}
}

func TestOFARMinimalWhenIdle(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	p := newPkt(d, 0, d.Nodes-1)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok {
		t.Fatal("refused on idle router")
	}
	if int(req.Out) != d.MinimalPort(0, int(p.Dst)) {
		t.Errorf("out=%d want minimal %d", req.Out, d.MinimalPort(0, int(p.Dst)))
	}
	if req.Has(router.SetGlobalMis) || req.Has(router.SetLocalMis) || req.Has(router.Escape) {
		t.Error("idle packet flagged")
	}
}

// TestOFARNoMisrouteOnEmptyNetwork: with the variable threshold, a busy
// minimal port with an empty downstream queue must cause a wait, not a
// misroute (the §V strict "< 0.9·Q_min" semantics).
func TestOFARNoMisrouteOnEmptyQueues(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	p := newPkt(d, 0, d.Nodes-1)
	min := d.MinimalPort(0, int(p.Dst))
	// Make the minimal port busy without occupying its queue: a zero-size
	// busy window via another grant is hard to fake, so exhaust one VC and
	// keep queue occupancy zero is impossible — instead mark port busy by
	// simulating a serialization in progress.
	p2 := newPkt(d, 0, int(p.Dst))
	arrive(rt, 0, 0, p2)
	eng := scriptEngine{out: min}
	if g := rt.Cycle(eng, 0); len(g) != 1 {
		t.Fatal("setup grant failed")
	}
	// Now the minimal port is busy but its queue holds only 8 phits (3%).
	// With Q_min ≈ 0.03 the threshold admits only strictly emptier VCs of
	// the same class; the class VC (vc0) of the alternatives is empty (0%),
	// which IS strictly below — so a global misroute from an injection
	// queue is legitimate here. Local misroute must not fire (minimal is
	// not credit-exhausted).
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 1)
	if ok && req.Has(router.SetLocalMis) {
		t.Error("local misroute without credit exhaustion")
	}
}

type scriptEngine struct{ out int }

func (s scriptEngine) AtInjection(*router.Router, *packet.Packet, int64) {}
func (s scriptEngine) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return router.Request{Out: uint8(s.out), VC: 0}, true
}

// TestOFARGlobalMisrouteFromInjection: with the minimal global channel
// saturated and idle alternatives, an injection-queue packet misroutes
// through another global port of the router and sets the header flag.
func TestOFARGlobalMisrouteFromInjection(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 3, true) // router 3 of group 0 owns links 6,7
	e := New(d, DefaultConfig())
	rl := d.LocalIndex(3)
	dstGroup := (0 + rl*d.H + 0 + 1) % d.G // target of router 3's global port 0
	dst := dstGroup * d.P * d.A
	p := newPkt(d, d.P*3, dst) // src attached to router 3
	min := d.MinimalPort(3, dst)
	if d.PortKindOf(min) != topology.PortGlobal {
		t.Fatalf("setup: minimal port %d is not global", min)
	}
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok {
		t.Fatal("blocked packet did not misroute")
	}
	if !req.Has(router.SetGlobalMis) {
		t.Errorf("expected global misroute, got %+v", req)
	}
	if d.PortKindOf(int(req.Out)) != topology.PortGlobal || int(req.Out) == min {
		t.Errorf("misroute port %d invalid", req.Out)
	}
}

// TestOFARInjectionMisroutesGloballyNotLocally: injection-queue packets in
// the source group use global misrouting even when the minimal port is a
// saturated local link (§IV-A: saves the first local hop of Valiant).
func TestOFARInjectionMisroutesGlobally(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	dst := d.Nodes - 1 // remote group, minimal is l1 from router 0? verify
	min := d.MinimalPort(0, dst)
	if d.PortKindOf(min) != topology.PortLocal {
		// pick another dst whose entry router differs from router 0
		for dst = d.P * d.A; dst < d.Nodes; dst++ {
			if d.GroupOfNode(dst) != 0 {
				min = d.MinimalPort(0, dst)
				if d.PortKindOf(min) == topology.PortLocal {
					break
				}
			}
		}
	}
	p := newPkt(d, 0, dst)
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok {
		t.Fatal("no misroute")
	}
	if !req.Has(router.SetGlobalMis) || d.PortKindOf(int(req.Out)) != topology.PortGlobal {
		t.Errorf("injection packet misrouted %+v, want global", req)
	}
}

// TestOFARLocalThenGlobalFromLocalQueue: source-group packets in local
// queues misroute locally first (when the minimal local port is saturated),
// then globally once the local flag is set.
func TestOFARLocalThenGlobal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	dst := d.Nodes - 1
	min := d.MinimalPort(0, dst)
	if d.PortKindOf(min) != topology.PortLocal {
		t.Skip("minimal from router 0 not local for this dst")
	}
	p := newPkt(d, 0, dst)
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetLocalMis) || d.PortKindOf(int(req.Out)) != topology.PortLocal {
		t.Fatalf("first misroute %+v, want local", req)
	}
	// Apply the flag as a commit would, then route again.
	p.MisrouteGroup = 0
	req, ok = e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetGlobalMis) || d.PortKindOf(int(req.Out)) != topology.PortGlobal {
		t.Fatalf("second misroute %+v, want global", req)
	}
	// Both flags set: no further misrouting is allowed.
	p.GlobalMisrouted = true
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 0); ok {
		t.Error("misrouted with both flags set")
	}
}

// TestOFARIntermediateGroupLocalOnly: outside the source group only local
// misrouting is allowed, and only when the minimal output is a saturated
// local port.
func TestOFARIntermediateGroupPolicy(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true) // router 0 acts as an intermediate hop
	e := New(d, DefaultConfig())
	// Packet from group 3 heading to a node in group 0 whose router is not 0.
	src := 3 * d.P * d.A
	dst := d.NodeAt(2, 0) // router 2, group 0
	p := newPkt(d, src, dst)
	p.GlobalHops = 1 // arrived via a global hop
	min := d.MinimalPort(0, dst)
	if d.PortKindOf(min) != topology.PortLocal {
		t.Fatal("setup: expected local minimal")
	}
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortGlobal, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetLocalMis) {
		t.Fatalf("expected local misroute in destination group, got %+v ok=%v", req, ok)
	}
	// With the local flag consumed, nothing else is allowed (no global
	// misroute outside the source group) — the packet waits.
	p.MisrouteGroup = 0
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortGlobal, Ring: -1}, p, 0); ok {
		t.Error("misrouted globally outside the source group")
	}
}

// TestOFARLDisablesLocalMisroute: the OFAR-L model never misroutes locally.
func TestOFARLDisablesLocal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	cfg := DefaultConfig()
	cfg.LocalMisroute = false
	e := New(d, cfg)
	dst := d.Nodes - 1
	min := d.MinimalPort(0, dst)
	if d.PortKindOf(min) != topology.PortLocal {
		t.Skip("minimal from router 0 not local")
	}
	p := newPkt(d, 0, dst)
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 0)
	if ok && req.Has(router.SetLocalMis) {
		t.Error("OFAR-L misrouted locally")
	}
	if !ok || !req.Has(router.SetGlobalMis) {
		t.Errorf("OFAR-L should misroute globally, got %+v ok=%v", req, ok)
	}
}

// TestOFAREscapeAfterTimeout: a packet blocked past the escape timeout with
// no misroute candidates requests the ring with a two-packet bubble.
func TestOFAREscapeAfterTimeout(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	cfg := DefaultConfig()
	cfg.EscapeTimeout = 10
	e := New(d, cfg)
	dst := d.Nodes - 1
	p := newPkt(d, 0, dst)
	p.GlobalMisrouted = true
	p.MisrouteGroup = 0
	saturatePort(rt, d.MinimalPort(0, dst))
	p.BlockedSince = 0
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 5); ok {
		t.Fatal("escaped before timeout")
	}
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 10)
	if !ok || !req.Has(router.EnterRing) || !req.Has(router.Escape) {
		t.Fatalf("expected ring entry at timeout, got %+v ok=%v", req, ok)
	}
	// Bubble: deplete the escape VCs below 2 packets and retry.
	rp := d.RouterPorts
	for vc := 0; vc < 3; vc++ {
		rt.Out[rp].SetCredits(vc, 1) // leave <2 packets of room
	}
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal, Ring: -1}, p, 20); ok {
		t.Error("ring entry granted without a two-packet bubble")
	}
}

// TestOFAROnRingBehavior: ring packets exit to an available minimal port,
// continue under a one-packet bubble, and always may eject at destination.
func TestOFAROnRingBehavior(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	cfg := DefaultConfig()
	cfg.MaxRingExits = 1
	e := New(d, cfg)
	dst := d.Nodes - 1
	p := newPkt(d, 0, dst)
	p.Ring = 0
	in := router.InCtx{Kind: topology.PortRing, Ring: 0}

	// Minimal available: exit.
	req, ok := e.Route(rt, in, p, 0)
	if !ok || !req.Has(router.ExitRing) {
		t.Fatalf("expected ring exit, got %+v", req)
	}
	// Minimal saturated: continue on the ring (1-packet bubble).
	saturatePort(rt, d.MinimalPort(0, dst))
	req, ok = e.Route(rt, in, p, 0)
	if !ok || !req.Has(router.Escape) || req.Has(router.ExitRing) {
		t.Fatalf("expected ring continuation, got %+v ok=%v", req, ok)
	}
	// Exit budget exhausted: may not exit mid-route even if minimal frees.
	p.RingExits = 1
	rt.AddCredit(d.MinimalPort(0, dst), 0)
	req, ok = e.Route(rt, in, p, 0)
	if ok && req.Has(router.ExitRing) {
		t.Error("exited the ring beyond the exit budget")
	}
	// ... but ejection at the destination router is always allowed.
	pHome := newPkt(d, d.Nodes-1, d.NodeAt(0, 1))
	pHome.Ring = 0
	pHome.RingExits = 99
	req, ok = e.Route(rt, in, pHome, 0)
	if !ok || !req.Has(router.ExitRing) || d.PortKindOf(int(req.Out)) != topology.PortNode {
		t.Fatalf("destination ejection from ring refused: %+v ok=%v", req, ok)
	}
}

// TestOFARIntraGroupLocalMisrouteOnly: intra-group traffic may only detour
// locally, once.
func TestOFARIntraGroup(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	dst := d.NodeAt(2, 0) // same group, router 2
	p := newPkt(d, 0, dst)
	min := d.MinimalPort(0, dst)
	saturatePort(rt, min)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetLocalMis) || d.PortKindOf(int(req.Out)) != topology.PortLocal {
		t.Fatalf("intra-group misroute %+v ok=%v, want local", req, ok)
	}
	if req.Has(router.SetGlobalMis) {
		t.Error("intra-group traffic misrouted globally")
	}
}

// TestOFARHeadroomFilter: a candidate whose class VC lacks two packets of
// room is rejected as noise.
func TestOFARHeadroomFilter(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, DefaultConfig())
	dst := d.NodeAt(2, 0)
	p := newPkt(d, 0, dst)
	min := d.MinimalPort(0, dst)
	saturatePort(rt, min)
	// Leave exactly one packet of room on every alternative local port's
	// class VC: all candidates must be rejected.
	for port := d.LocalPortBase(); port < d.GlobalPortBase(); port++ {
		if port == min {
			continue
		}
		rt.Out[port].SetCredits(0, 1)
	}
	if req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0); ok {
		t.Errorf("misrouted to a headroom-less candidate: %+v", req)
	}
}

func TestVariablePolicyConfig(t *testing.T) {
	v := VariablePolicyConfig()
	if v.StaticNonMin >= 0 || v.ThMin != 0 || v.NonMinFactor != 0.9 {
		t.Errorf("variable policy config: %+v", v)
	}
	d := DefaultConfig()
	if d.StaticNonMin != 0.4 || d.ThMin != 1.0 {
		t.Errorf("default static config: %+v", d)
	}
}

// TestOFARConfigValidation: a policy with neither a static threshold nor a
// positive variable factor is an error, not a panic; either threshold alone
// is enough. An exit budget the 16-bit hop counters cannot hold is an error
// too, the largest one they can is not.
func TestOFARConfigValidation(t *testing.T) {
	if err := (Config{NonMinFactor: 0, StaticNonMin: -1}).Validate(); err == nil {
		t.Error("threshold-less config accepted")
	}
	exits := DefaultConfig()
	exits.MaxRingExits = MaxRingExitsCap + 1
	if err := exits.Validate(); err == nil {
		t.Errorf("MaxRingExits %d accepted", exits.MaxRingExits)
	}
	capped := DefaultConfig()
	capped.MaxRingExits = MaxRingExitsCap
	for _, c := range []Config{DefaultConfig(), VariablePolicyConfig(), {NonMinFactor: 0, StaticNonMin: 0}, capped} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
}

// TestOFARVariablePolicyStrictness: under the §V variable policy, a busy
// minimal port with an empty downstream queue must NOT trigger misrouting
// (candidates need occupancy strictly below 0.9·Q_min = 0).
func TestOFARVariablePolicyStrictness(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	e := New(d, VariablePolicyConfig())
	e.AtInjection(rt, nil, 0) // no-op, covers the hook
	dst := d.Nodes - 1
	p := newPkt(d, 0, dst)
	min := d.MinimalPort(0, dst)
	// Make the minimal port busy via a scripted grant (queue stays almost
	// empty: only the granted packet's 8 phits are accounted downstream).
	p2 := newPkt(d, 0, dst)
	arrive(rt, 0, 0, p2)
	if g := rt.Cycle(scriptEngine{out: min}, 0); len(g) != 1 {
		t.Fatal("setup grant failed")
	}
	// Refund the grant's credits so the port is busy with a truly empty
	// downstream queue (Q_min = 0): nothing is strictly below 0.9·0.
	rt.AddCredit(min, 0)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 1)
	if ok && (req.Has(router.SetGlobalMis) || req.Has(router.SetLocalMis)) {
		t.Errorf("variable policy misrouted on a serialization collision: %+v", req)
	}
}

// TestOFARVariablePolicyMisroutesOnBacklog: with genuine backlog on the
// minimal queue and an empty alternative, the variable policy misroutes.
func TestOFARVariablePolicyMisroutesOnBacklog(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 3, true)
	e := New(d, VariablePolicyConfig())
	rl := d.LocalIndex(3)
	dstGroup := (rl*d.H + 1) % d.G
	dst := dstGroup * d.P * d.A
	p := newPkt(d, d.P*3, dst)
	min := d.MinimalPort(3, dst)
	if d.PortKindOf(min) != topology.PortGlobal {
		t.Fatal("setup: want global minimal")
	}
	saturatePort(rt, min) // occupancy 100%, credits exhausted
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetGlobalMis) {
		t.Fatalf("variable policy did not misroute on backlog: %+v ok=%v", req, ok)
	}
}

// TestOFARLeastOccupiedSelection: with the LeastOccupied option the engine
// picks the emptiest eligible candidate deterministically.
func TestOFARLeastOccupiedSelection(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 3, true)
	cfg := DefaultConfig()
	cfg.LeastOccupied = true
	e := New(d, cfg)
	// Destination whose minimal path leaves via a LOCAL port, so both of
	// router 3's global ports are misroute candidates.
	var dst int
	var min int
	for dst = d.P * d.A; dst < d.Nodes; dst++ {
		if d.GroupOfNode(dst) == 0 {
			continue
		}
		min = d.MinimalPort(3, dst)
		if d.PortKindOf(min) == topology.PortLocal {
			break
		}
	}
	p := newPkt(d, d.P*3, dst)
	saturatePort(rt, min)
	g0 := d.GlobalPortBase()
	rt.Out[g0].SetCredits(0, rt.Out[g0].VCCap(0)-8) // 12.5% occupancy on the first global port
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode, Ring: -1}, p, 0)
	if !ok || !req.Has(router.SetGlobalMis) {
		t.Fatalf("no misroute: %+v ok=%v", req, ok)
	}
	if int(req.Out) != g0+1 {
		t.Errorf("least-occupied pick %d, want the empty port %d", req.Out, g0+1)
	}
}

// TestVCFitsClamping: hop classes beyond the VC count clamp to the last VC,
// which is where a packet with that many hops fits or not.
func TestVCFitsClamping(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, true)
	p := newPkt(d, 0, d.Nodes-1)
	p.GlobalHops = 9 // clamps to the last VC
	min := d.GlobalPortBase()
	last := rt.Out[min].NumVCs() - 1
	if vc := rt.Out[min].ClassVC(int(p.GlobalHops)); vc != last || rt.Out[min].Credits(vc) < 1 {
		t.Errorf("clamped class VC %d, want %d with credits on a fresh port", vc, last)
	}
	rt.Out[min].SetCredits(last, 0)
	if rt.Out[min].Credits(rt.Out[min].ClassVC(int(p.GlobalHops))) > 0 {
		t.Error("clamped class reported fit on an exhausted VC")
	}
}
