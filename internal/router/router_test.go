package router

import (
	"testing"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// scriptEngine lets tests drive routing decisions directly.
type scriptEngine struct {
	route func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool)
}

func (s scriptEngine) AtInjection(*Router, *packet.Packet, int64) {}
func (s scriptEngine) Route(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
	return s.route(rt, in, p, now)
}

// testRouter builds a standalone router with 2 injection-style local input
// ports and 2 local output ports, 1 VC each, for allocator tests. The wiring
// fields point nowhere; only Cycle-level behavior is exercised.
func testRouter(t *testing.T, vcsPerPort int) *Router {
	t.Helper()
	d, err := topology.New(1, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int, vcsPerPort)
	rings := make([]int, vcsPerPort)
	for i := range caps {
		caps[i] = 8
		rings[i] = -1
	}
	mk := func() PortSpec {
		return PortSpec{
			Kind: topology.PortLocal, Peer: 1, PeerPort: 0, UpRouter: 1, UpPort: 0,
			Latency: 10, InCaps: caps, InRing: rings, OutCaps: caps, OutRing: rings,
		}
	}
	return New(Params{
		ID: 0, Topo: d, PktSize: 8, AllocIters: 3,
		RNG:   simcore.NewRNG(7),
		Ports: []PortSpec{mk(), mk(), mk()},
	})
}

func push(r *Router, port, vc int, pool *packet.Pool) *packet.Packet {
	h, p := get(r, pool)
	p.Dst = 0
	// Arrive, not a raw buffer Push: Cycle iterates the per-port ready
	// bitsets, which only the router's own entry points maintain.
	r.Arrive(port, vc, h)
	return p
}

// get takes a packet with a fresh ID from pool for r, giving a bare router
// the pool's store, or binding the pool to the router's.
func get(r *Router, pool *packet.Pool) (packet.Handle, *packet.Packet) {
	if r.pkts == nil {
		r.pkts = pool.Store()
	} else if pool.Store() != r.pkts {
		*pool = packet.NewPool(r.pkts)
	}
	h := pool.Alloc()
	p := r.pkts.At(h)
	p.ID = pool.NextID()
	return h, p
}

// TestAllocatorSingleGrantPerOutput: two inputs requesting the same output
// yield exactly one grant per allocation, and over consecutive packet times
// both inputs get served (LRS fairness).
func TestAllocatorSingleGrantPerOutput(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: 2, VC: 0}, true
	}}
	for i := 0; i < 4; i++ {
		push(r, 0, 0, &pool)
		push(r, 1, 0, &pool)
	}
	served := map[int]int{}
	for now := int64(0); now < 64; now++ {
		grants := r.Cycle(eng, now)
		if len(grants) > 1 {
			t.Fatalf("cycle %d: %d grants for one output", now, len(grants))
		}
		for _, g := range grants {
			served[g.InPort]++
		}
		// Complete drains when due so the next head becomes routable.
		for ip := range r.In {
			for vc := range r.In[ip].VCs {
				b := &r.In[ip].VCs[vc]
				if b.Draining() && !r.In[ip].Busy(now+1) {
					r.FinishDrain(ip, vc)
				}
			}
		}
	}
	if served[0] != 4 || served[1] != 4 {
		t.Errorf("served distribution %v, want 4/4", served)
	}
}

// TestAllocatorParallelGrants: requests to distinct outputs are granted in
// the same cycle.
func TestAllocatorParallelGrants(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: uint8(in.Port), VC: 0}, true // input i -> output i
	}}
	push(r, 0, 0, &pool)
	push(r, 1, 0, &pool)
	push(r, 2, 0, &pool)
	grants := r.Cycle(eng, 0)
	if len(grants) != 3 {
		t.Fatalf("expected 3 parallel grants, got %d", len(grants))
	}
}

// TestAllocatorIterationsRecover: an input that loses output arbitration in
// iteration 1 re-requests through another VC in a later iteration. Input 0
// only wants out1; input 1 wants out1 (VC0) and out2 (VC1). With the
// tie-break favoring input 0 on out1, input 1 must recover via out2 —
// which only a multi-iteration separable allocator finds.
func TestAllocatorIterationsRecover(t *testing.T) {
	r := testRouter(t, 2)
	var pool packet.Pool
	want := map[[2]int]int{{0, 0}: 1, {1, 0}: 1, {1, 1}: 2}
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		out, ok := want[[2]int{in.Port, in.VC}]
		return Request{Out: uint8(out), VC: 0}, ok
	}}
	push(r, 0, 0, &pool)
	push(r, 1, 0, &pool)
	push(r, 1, 1, &pool)
	grants := r.Cycle(eng, 0)
	if len(grants) != 2 {
		t.Fatalf("expected 2 grants via iterative allocation, got %d", len(grants))
	}
	got := map[int]int{} // input -> output
	for _, g := range grants {
		got[g.InPort] = int(g.Req.Out)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("matching %v, want 0->1 and 1->2", got)
	}
}

// TestAllocatorMaximalNotMaximum documents the expected iSLIP-like behavior:
// when input 0 (winning ties) takes the only output input 1 wants, input 0's
// alternative VC request cannot also be served, so one grant is correct.
func TestAllocatorMaximalNotMaximum(t *testing.T) {
	r := testRouter(t, 2)
	var pool packet.Pool
	want := map[[2]int]int{{0, 0}: 2, {0, 1}: 1, {1, 0}: 2}
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		out, ok := want[[2]int{in.Port, in.VC}]
		return Request{Out: uint8(out), VC: 0}, ok
	}}
	push(r, 0, 0, &pool)
	push(r, 0, 1, &pool)
	push(r, 1, 0, &pool)
	grants := r.Cycle(eng, 0)
	if len(grants) != 1 || grants[0].Req.Out != 2 {
		t.Fatalf("expected the single out2 grant, got %+v", grants)
	}
}

// TestSerializationBlocksPort: after a grant, both the input port and the
// output port stay busy for packet-size cycles.
func TestSerializationBlocksPort(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: 2, VC: 0}, true
	}}
	push(r, 0, 0, &pool)
	push(r, 1, 0, &pool)
	if g := r.Cycle(eng, 0); len(g) != 1 {
		t.Fatalf("grants=%d", len(g))
	}
	for now := int64(1); now < 8; now++ {
		if g := r.Cycle(eng, now); len(g) != 0 {
			t.Fatalf("cycle %d: output granted while serializing", now)
		}
	}
	// At cycle 8 the ports are free again (busyUntil = 8).
	if g := r.Cycle(eng, 8); len(g) != 1 {
		t.Fatal("no grant after serialization finished")
	}
}

// TestCommitConsumesCredits: winning a grant takes one downstream credit;
// AddCredit refunds it.
func TestCommitConsumesCredits(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: 1, VC: 0}, true
	}}
	push(r, 0, 0, &pool)
	before := r.Out[1].Credits(0)
	if g := r.Cycle(eng, 0); len(g) != 1 {
		t.Fatal("no grant")
	}
	if got := r.Out[1].Credits(0); got != before-1 {
		t.Errorf("credits=%d want %d", got, before-1)
	}
	r.AddCredit(1, 0)
	if got := r.Out[1].Credits(0); got != before {
		t.Errorf("after refund credits=%d want %d", got, before)
	}
}

// TestCommitAppliesHeaderFlags: misroute/ring request flags land on the
// packet only when the request wins.
func TestCommitAppliesHeaderFlags(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: 1, VC: 0, Flags: SetGlobalMis | SetLocalMis}, true
	}}
	p := push(r, 0, 0, &pool)
	if p.GlobalMisrouted || p.LocalMisrouted {
		t.Fatal("flags set prematurely")
	}
	r.Cycle(eng, 0)
	if !p.GlobalMisrouted || !p.LocalMisrouted {
		t.Error("flags not applied on commit")
	}
	if int(p.MisrouteGroup) != r.Group {
		t.Errorf("MisrouteGroup=%d want %d", p.MisrouteGroup, r.Group)
	}
	if p.BlockedSince != -1 {
		t.Error("BlockedSince not reset on commit")
	}
}

// TestBlockedSinceTracking: a head packet that cannot move records when it
// first blocked; the timestamp survives until it moves.
func TestBlockedSinceTracking(t *testing.T) {
	r := testRouter(t, 1)
	var pool packet.Pool
	refuse := true
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		if refuse {
			return Request{}, false
		}
		return Request{Out: 1, VC: 0}, true
	}}
	p := push(r, 0, 0, &pool)
	r.Cycle(eng, 5)
	if p.BlockedSince != 5 {
		t.Fatalf("BlockedSince=%d want 5", p.BlockedSince)
	}
	r.Cycle(eng, 6)
	if p.BlockedSince != 5 {
		t.Fatalf("BlockedSince overwritten: %d", p.BlockedSince)
	}
	refuse = false
	r.Cycle(eng, 7)
	if p.BlockedSince != -1 {
		t.Error("BlockedSince not cleared after grant")
	}
}

// TestArriveUpdatesHeader: hop counters, group-entry flag maintenance.
func TestArriveUpdatesHeader(t *testing.T) {
	d, _ := topology.New(2, 4, 2, 0)
	caps := []int{4}
	ring := []int{-1}
	specs := make([]PortSpec, 3)
	specs[0] = PortSpec{Kind: topology.PortNode, Peer: -1, PeerPort: -1, UpRouter: -1, UpPort: -1, Latency: 1, InCaps: caps, InRing: ring, OutCaps: caps, OutRing: ring}
	specs[1] = PortSpec{Kind: topology.PortLocal, Peer: 1, PeerPort: 1, UpRouter: 1, UpPort: 1, Latency: 10, InCaps: caps, InRing: ring, OutCaps: caps, OutRing: ring}
	specs[2] = PortSpec{Kind: topology.PortGlobal, Peer: 8, PeerPort: 2, UpRouter: 8, UpPort: 2, Latency: 100, InCaps: caps, InRing: ring, OutCaps: caps, OutRing: ring}
	r := New(Params{ID: 0, Topo: d, PktSize: 8, AllocIters: 3, RNG: simcore.NewRNG(1), Ports: specs})

	var pool packet.Pool
	h, p := get(r, &pool)
	p.LocalMisrouted = true
	p.MisrouteGroup = 5 // set in another group
	p.ValiantGroup = 0  // this router's group is the valiant target
	r.Arrive(1, 0, h)
	if p.LocalHops != 1 || p.GlobalHops != 0 || p.TotalHops != 1 {
		t.Errorf("hops after local arrive: %d/%d/%d", p.LocalHops, p.GlobalHops, p.TotalHops)
	}
	if p.LocalMisrouted {
		t.Error("local-misroute flag not reset on group change")
	}
	if p.ValiantGroup != -1 {
		t.Error("valiant group not cleared on arrival at the target group")
	}
	h2, p2 := get(r, &pool)
	r.Arrive(2, 0, h2)
	if p2.GlobalHops != 1 || p2.LocalHops != 0 {
		t.Errorf("hops after global arrive: %d/%d", p2.LocalHops, p2.GlobalHops)
	}
}

func TestInjectionSpaceAndInject(t *testing.T) {
	d, _ := topology.New(1, 2, 1, 0)
	caps := []int{2, 2}
	ring := []int{-1, -1}
	spec := PortSpec{Kind: topology.PortNode, Peer: -1, PeerPort: -1, UpRouter: -1, UpPort: -1, Latency: 1, InCaps: caps, InRing: ring, OutCaps: []int{1}, OutRing: []int{-1}}
	r := New(Params{ID: 0, Topo: d, PktSize: 8, AllocIters: 1, RNG: simcore.NewRNG(1), Ports: []PortSpec{spec}})
	var pool packet.Pool
	for i := 0; i < 4; i++ {
		vc, ok := r.InjectionSpace(0)
		if !ok {
			t.Fatalf("no injection space at %d", i)
		}
		h, p := get(r, &pool)
		r.Inject(0, vc, h, int64(i))
		if p.Injected != int64(i) {
			t.Error("Injected timestamp not set")
		}
	}
	if _, ok := r.InjectionSpace(0); ok {
		t.Error("injection space reported in full buffers")
	}
}

func TestRingOutSelection(t *testing.T) {
	d, _ := topology.New(1, 2, 1, 0)
	caps := []int{2, 4}
	ring := []int{-1, 0}
	spec := PortSpec{Kind: topology.PortLocal, Peer: 1, PeerPort: 0, UpRouter: 1, UpPort: 0, Latency: 10, InCaps: caps, InRing: ring, OutCaps: caps, OutRing: ring}
	r := New(Params{ID: 0, Topo: d, PktSize: 8, AllocIters: 1, RNG: simcore.NewRNG(1), Ports: []PortSpec{spec}, RingOuts: []int{0}})
	if r.NumRings() != 1 {
		t.Fatal("ring count")
	}
	port, vc, credits, ok := r.RingOut(0)
	if !ok || port != 0 || vc != 1 || credits != 4 {
		t.Fatalf("RingOut = %d,%d,%d,%v", port, vc, credits, ok)
	}
	if _, _, _, ok := r.RingOut(1); ok {
		t.Error("nonexistent ring reported")
	}
}

func TestUpdatePBFlags(t *testing.T) {
	d, _ := topology.New(1, 2, 1, 0) // ports: 1 node, 1 local, 1 global
	fb := NewFlagBoard(d.A*d.H, 0)
	caps := []int{4}
	ring := []int{-1}
	mk := func(kind topology.PortKind) PortSpec {
		return PortSpec{Kind: kind, Peer: 1, PeerPort: 0, UpRouter: 1, UpPort: 0, Latency: 1, InCaps: caps, InRing: ring, OutCaps: caps, OutRing: ring}
	}
	r := New(Params{ID: 0, Topo: d, PktSize: 8, AllocIters: 1, RNG: simcore.NewRNG(1),
		Ports: []PortSpec{mk(topology.PortNode), mk(topology.PortLocal), mk(topology.PortGlobal)},
		PB:    fb, PBThreshold: 0.5})
	r.UpdatePBFlags(0)
	if r.PBFlag(0, 0) {
		t.Error("uncongested link flagged")
	}
	r.Out[2].SetCredits(0, 1) // 75% occupancy on the global port
	r.UpdatePBFlags(1)
	if !r.PBFlag(0, 1) {
		t.Error("congested link not flagged")
	}
}

func TestRouterAccessors(t *testing.T) {
	r := testRouter(t, 2)
	if v := r.RandInt(5); v < 0 || v >= 5 {
		t.Errorf("RandInt out of range: %d", v)
	}
	if r.Out[1].Busy(0) {
		t.Error("fresh port busy")
	}
	if r.Out[1].Occupancy() != 0 {
		t.Error("fresh port occupied")
	}
	r.Out[1].SetCredits(0, 4)
	if got := r.Out[1].Occupancy(); got != 0.25 {
		t.Errorf("Occupancy=%f want 0.25 (aggregate of 2 VCs)", got)
	}
	r.Out[1].SetCredits(0, 0)
	if r.Out[1].Credits(1) < 1 || r.Out[1].Credits(0) > 0 {
		t.Error("credits wrong")
	}
	if r.PBFlag(0, 0) {
		t.Error("PBFlag without a board")
	}
}

func TestVCCapAndEscapeRingAccessors(t *testing.T) {
	var op OutPort
	op.initOut(new(Arena), []int{2, 1}, []int{-1, 1})
	if op.VCCap(0) != 2 || op.VCCap(1) != 1 {
		t.Error("VCCap")
	}
	if op.EscapeRing(0) != -1 || op.EscapeRing(1) != 1 {
		t.Error("EscapeRing")
	}
}
