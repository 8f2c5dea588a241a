package routing

import (
	"testing"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// buildRouter constructs router `id` of topology d with paper-style buffer
// profiles (3×32 local/injection VCs, 2×256 global VCs), optionally attached
// to a PB flag board.
func buildRouter(t *testing.T, d *topology.Dragonfly, id int, fb *router.FlagBoard) *router.Router {
	t.Helper()
	specs := make([]router.PortSpec, d.RouterPorts)
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
	return router.New(router.Params{
		ID: id, Topo: d, PktSize: 8, AllocIters: 3,
		RNG: simcore.NewRNG(uint64(id) + 11), Ports: specs,
		PB: fb, PBThreshold: 0.30,
	})
}

func newPkt(d *topology.Dragonfly, src, dst int) *packet.Packet {
	p := &packet.Packet{}
	p.Reset()
	p.Src, p.Dst = int32(src), int32(dst)
	p.SrcGroup, p.DstGroup = int16(d.GroupOfNode(src)), int16(d.GroupOfNode(dst))
	return p
}

// outPort returns a lone output port of the given kind with numVCs
// downstream VCs of 4 packets.
func outPort(kind topology.PortKind, numVCs int) *router.OutPort {
	d, _ := topology.New(2, 4, 2, 0)
	caps := make([]int, numVCs)
	for i := range caps {
		caps[i] = 4
	}
	rt := router.New(router.Params{Topo: d, PktSize: 8, Ports: []router.PortSpec{{Kind: kind, OutCaps: caps}}})
	return &rt.Out[0]
}

// TestVCForDiscipline: the baselines' ascending VC order through the shared
// rule — the VC is the global hops taken, clamped; ejection uses VC 0.
func TestVCForDiscipline(t *testing.T) {
	cases := []struct {
		kind   topology.PortKind
		ghops  int
		numVCs int
		wantVC int
	}{
		{topology.PortLocal, 0, 3, 0},
		{topology.PortLocal, 1, 3, 1},
		{topology.PortLocal, 2, 3, 2},
		{topology.PortGlobal, 0, 2, 0},
		{topology.PortGlobal, 1, 2, 1},
		{topology.PortLocal, 5, 3, 2}, // clamped
		{topology.PortNode, 2, 1, 0},
	}
	for _, c := range cases {
		if got := outPort(c.kind, c.numVCs).ClassVC(c.ghops); got != c.wantVC {
			t.Errorf("ClassVC(%v, ghops=%d) = %d, want %d", c.kind, c.ghops, got, c.wantVC)
		}
	}
}

func TestNextOutFollowsValiantThenMinimal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	p := newPkt(d, 0, d.Nodes-1)
	r0 := 0
	p.ValiantGroup = 4
	out := nextOut(d, r0, p)
	if got := d.PortToGroup(r0, 4); out != got {
		t.Errorf("valiant next out %d, want %d", out, got)
	}
	p.ValiantGroup = -1
	if out := nextOut(d, r0, p); out != d.MinimalPort(r0, int(p.Dst)) {
		t.Error("minimal next out mismatch")
	}
	// Inside the valiant group the packet heads minimally (EnterGroup will
	// have cleared the field on arrival; nextOut must also not loop if the
	// field is stale).
	p.ValiantGroup = 0
	if out := nextOut(d, r0, p); out != d.MinimalPort(r0, int(p.Dst)) {
		t.Error("stale valiant group not ignored inside the group")
	}
}

func TestMinimalRouteRequest(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewMinimal(d)
	dst := d.Nodes - 1
	p := newPkt(d, 0, dst)
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode}, p, 0)
	if !ok {
		t.Fatal("route refused on an idle router")
	}
	if int(req.Out) != d.MinimalPort(0, dst) || req.VC != 0 {
		t.Errorf("req=%+v", req)
	}
	if req.Has(router.SetGlobalMis) || req.Has(router.SetLocalMis) || req.Has(router.Escape) {
		t.Error("minimal routing set misroute/escape flags")
	}
}

// TestMinimalWaitsOnFixedVC: the baseline discipline waits for its class VC
// even when other VCs have credits.
func TestMinimalWaitsOnFixedVC(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewMinimal(d)
	dst := d.Nodes - 1 // remote group; minimal port from router 0
	p := newPkt(d, 0, dst)
	out := d.MinimalPort(0, dst)
	// Exhaust VC0 of the minimal port; VC1 keeps credits.
	rt.Out[out].SetCredits(0, 0)
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode}, p, 0); ok {
		t.Error("baseline used a different VC than its class")
	}
}

func TestValiantAssignsIntermediate(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewValiant(d)
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		p := newPkt(d, 0, d.Nodes-1) // src group 0, dst group 8
		e.AtInjection(rt, p, 0)
		if p.ValiantGroup == p.SrcGroup || p.ValiantGroup == p.DstGroup {
			t.Fatalf("valiant group %d collides", p.ValiantGroup)
		}
		if p.ValiantGroup < 0 || int(p.ValiantGroup) >= d.G {
			t.Fatalf("valiant group out of range: %d", p.ValiantGroup)
		}
		seen[int(p.ValiantGroup)] = true
	}
	if len(seen) != d.G-2 {
		t.Errorf("valiant groups used: %d of %d", len(seen), d.G-2)
	}
}

func TestValiantIntraGroup(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewValiant(d)
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		p := newPkt(d, 0, d.P*2) // same group, different router
		e.AtInjection(rt, p, 0)
		if p.ValiantGroup == 0 {
			t.Fatal("intra-group valiant picked the source group")
		}
		seen[int(p.ValiantGroup)] = true
	}
	if len(seen) != d.G-1 {
		t.Errorf("intra-group valiant groups used: %d of %d", len(seen), d.G-1)
	}
}

func TestUGALPrefersEmptyMinimal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewUGAL(d, DefaultAdaptiveConfig())
	p := newPkt(d, 0, d.Nodes-1)
	e.AtInjection(rt, p, 0)
	if p.ValiantGroup >= 0 {
		t.Error("UGAL misroutes on an idle network")
	}
}

func TestUGALMisroutesOnBacklog(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewUGAL(d, DefaultAdaptiveConfig())
	dst := d.Nodes - 1
	minOut := d.MinimalPort(0, dst)
	// Saturate the minimal output queue completely.
	for vc := 0; vc < rt.Out[minOut].NumVCs(); vc++ {
		rt.Out[minOut].SetCredits(vc, 0)
	}
	misroutes := 0
	for i := 0; i < 100; i++ {
		p := newPkt(d, 0, dst)
		e.AtInjection(rt, p, 0)
		if p.ValiantGroup >= 0 {
			misroutes++
		}
	}
	// The valiant candidate is random; when it maps to the same (congested)
	// output port the comparison keeps the packet minimal, otherwise it
	// must misroute.
	if misroutes < 50 {
		t.Errorf("only %d/100 packets misrouted with a saturated minimal queue", misroutes)
	}
}

func TestUGALIntraGroupStaysMinimal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewUGAL(d, DefaultAdaptiveConfig())
	p := newPkt(d, 0, d.P) // same group
	e.AtInjection(rt, p, 0)
	if p.ValiantGroup >= 0 {
		t.Error("UGAL misrouted intra-group traffic")
	}
}

func TestPBFlagForcesMisroute(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	fb := router.NewFlagBoard(d.A*d.H, 0)
	rt := buildRouter(t, d, 0, fb)
	e := NewPB(d, DefaultAdaptiveConfig())
	dst := d.Nodes - 1 // dst group 8
	minLink := d.GlobalLinkOf(0, d.GroupOfNode(dst))
	fb.Set(0, minLink, true) // minimal global channel congested
	misroutes := 0
	for i := 0; i < 200; i++ {
		p := newPkt(d, 0, dst)
		e.AtInjection(rt, p, 0)
		if p.ValiantGroup >= 0 {
			misroutes++
		}
	}
	// Occasionally the random valiant group's channel is also flagged (it
	// is not here) — with only minLink flagged every packet must divert.
	if misroutes != 200 {
		t.Errorf("%d/200 packets diverted under a flagged minimal channel", misroutes)
	}
}

func TestPBBothFlaggedStaysMinimal(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	fb := router.NewFlagBoard(d.A*d.H, 0)
	rt := buildRouter(t, d, 0, fb)
	e := NewPB(d, DefaultAdaptiveConfig())
	dst := d.Nodes - 1
	for l := 0; l < d.A*d.H; l++ {
		fb.Set(0, l, true) // everything congested
	}
	for i := 0; i < 50; i++ {
		p := newPkt(d, 0, dst)
		e.AtInjection(rt, p, 0)
		if p.ValiantGroup >= 0 {
			t.Fatal("PB misrouted with all channels flagged")
		}
	}
}

func TestPBUnflaggedFallsBackToUGAL(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	fb := router.NewFlagBoard(d.A*d.H, 0)
	rt := buildRouter(t, d, 0, fb)
	e := NewPB(d, DefaultAdaptiveConfig())
	p := newPkt(d, 0, d.Nodes-1)
	e.AtInjection(rt, p, 0)
	if p.ValiantGroup >= 0 {
		t.Error("PB misrouted on an idle network without flags")
	}
}

func TestPickIntermediateNeverCollides(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	for src := 0; src < d.G; src++ {
		for dst := 0; dst < d.G; dst++ {
			for i := 0; i < 20; i++ {
				vg := pickIntermediate(d, rt, src, dst)
				if vg == src || vg == dst || vg < 0 || vg >= d.G {
					t.Fatalf("pickIntermediate(%d,%d)=%d", src, dst, vg)
				}
			}
		}
	}
}

func TestPickIntermediateTinyNetwork(t *testing.T) {
	d, _ := topology.New(1, 2, 1, 2) // G=2: no third group
	rt := buildRouter(t, d, 0, nil)
	if vg := pickIntermediate(d, rt, 0, 1); vg != -1 {
		t.Errorf("expected -1 on 2-group network, got %d", vg)
	}
}

// --- PAR tests ---------------------------------------------------------------

func TestPARInTransitDivert(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewPAR(d, DefaultAdaptiveConfig())
	dst := d.Nodes - 1
	p := newPkt(d, d.NodeAt(1, 0), dst) // src on router 1, now at router 0
	p.LocalHops = 1                     // took the l1 hop to get here
	minOut := d.MinimalPort(0, dst)
	// Saturate the minimal output at this router: PAR must divert in
	// transit, something UGAL/PB cannot do.
	for vc := 0; vc < rt.Out[minOut].NumVCs(); vc++ {
		rt.Out[minOut].SetCredits(vc, 0)
	}
	diverted := 0
	for i := 0; i < 50; i++ {
		q := *p // copy: Route mutates ValiantGroup
		if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal}, &q, 0); ok || q.ValiantGroup >= 0 {
			if q.ValiantGroup >= 0 {
				diverted++
			}
		}
	}
	if diverted < 25 {
		t.Errorf("PAR diverted only %d/50 blocked packets in transit", diverted)
	}
}

func TestPARNoDivertAfterGlobalHop(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewPAR(d, DefaultAdaptiveConfig())
	p := newPkt(d, d.Nodes-1, d.NodeAt(2, 0)) // foreign source, dst in group 0
	p.GlobalHops = 1
	min := d.MinimalPort(0, int(p.Dst))
	for vc := 0; vc < rt.Out[min].NumVCs(); vc++ {
		rt.Out[min].SetCredits(vc, 0)
	}
	if _, ok := e.Route(rt, router.InCtx{Kind: topology.PortLocal}, p, 0); ok {
		t.Error("PAR moved through a saturated port")
	}
	if p.ValiantGroup >= 0 {
		t.Error("PAR diverted outside the source group")
	}
}

func TestPARVCDiscipline(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	p := newPkt(d, 0, d.Nodes-1)
	vcFor := func(kind topology.PortKind, numVCs int) int {
		return outPort(kind, numVCs).ClassVC(parHops(kind, p))
	}
	p.LocalHops = 1
	if vc := vcFor(topology.PortLocal, 4); vc != 1 {
		t.Errorf("second local hop vc=%d want 1", vc)
	}
	p.LocalHops = 3
	if vc := vcFor(topology.PortLocal, 4); vc != 3 {
		t.Errorf("fourth local hop vc=%d want 3", vc)
	}
	p.GlobalHops = 1
	if vc := vcFor(topology.PortGlobal, 2); vc != 1 {
		t.Errorf("second global hop vc=%d want 1", vc)
	}
}

func TestValiantRouteFollowsCommittedPath(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewValiant(d)
	p := newPkt(d, 0, d.Nodes-1)
	p.ValiantGroup = 4
	req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode}, p, 0)
	if !ok {
		t.Fatal("route refused")
	}
	if int(req.Out) != d.PortToGroup(0, 4) {
		t.Errorf("VAL did not head to its intermediate group")
	}
}

func TestUGALAndPBRouteAreFixed(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	p := newPkt(d, 0, d.Nodes-1)
	for _, e := range []router.Engine{NewUGAL(d, DefaultAdaptiveConfig()), NewPB(d, DefaultAdaptiveConfig())} {
		req, ok := e.Route(rt, router.InCtx{Kind: topology.PortNode}, p, 0)
		if !ok || int(req.Out) != d.MinimalPort(0, int(p.Dst)) {
			t.Errorf("%T route %+v ok=%v", e, req, ok)
		}
	}
}

func TestPARAtInjectionIdle(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	rt := buildRouter(t, d, 0, nil)
	e := NewPAR(d, DefaultAdaptiveConfig())
	p := newPkt(d, 0, d.Nodes-1)
	e.AtInjection(rt, p, 0)
	if p.ValiantGroup >= 0 {
		t.Error("PAR misrouted at injection on an idle network")
	}
	intra := newPkt(d, 0, d.P)
	e.AtInjection(rt, intra, 0)
	if intra.ValiantGroup >= 0 {
		t.Error("PAR misrouted intra-group traffic")
	}
}
