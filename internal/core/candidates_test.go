package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// scanPick is pickAmong as a per-port scan, the form it had before the
// candidate mask, kept as the oracle: walk [base, base+count) in ascending
// order, skip the minimal port, note every other port as read, keep the
// free ports under the threshold whose class VC is canonical with two
// credits, then draw one candidate from rng (or take the least occupied).
// It returns the request, the candidate mask and the ports it read.
func scanPick(cfg Config, rt *router.Router, base, count, exclude int, th float64, strict bool,
	p *packet.Packet, now int64, rng *simcore.RNG) (req router.Request, ok bool, mask, reads uint64) {
	var cand [64]uint8
	nc := 0
	for port := base; port < base+count; port++ {
		if port == exclude {
			continue
		}
		reads |= 1 << uint(port)
		if rt.Out[port].Busy(now) {
			continue
		}
		occ := rt.Out[port].Occupancy()
		if occ > th || (strict && occ >= th) {
			continue
		}
		vc, ok := chooseVC(rt, port, p, now)
		if !ok || rt.Out[port].Credits(vc) < 2 {
			continue
		}
		cand[nc] = uint8(port)
		nc++
		mask |= 1 << uint(port)
	}
	if nc == 0 {
		return router.Request{}, false, mask, reads
	}
	port := int(cand[0])
	if cfg.LeastOccupied {
		best := rt.Out[port].Occupancy()
		for _, c := range cand[1:nc] {
			if occ := rt.Out[int(c)].Occupancy(); occ < best {
				port, best = int(c), occ
			}
		}
	} else {
		port = int(cand[rng.Intn(nc)])
	}
	vc, _ := chooseVC(rt, port, p, now)
	return router.Request{Out: uint8(port), VC: uint8(vc)}, true, mask, reads
}

// randomCandRouter builds router id of d with random output state: per-VC
// capacities of 2–6 packets with some VCs tagged as escape VCs of ring 0, a
// physical ring port, some outputs busy (granted at cycle 0, busy through
// cycle 7), some dead, and every credit counter anywhere in [0, cap]. It
// returns the router, its RNG and the wired input ports not used for the
// busy grants (free to hold heads later).
func randomCandRouter(t *testing.T, d *topology.Dragonfly, id int, rng *rand.Rand) (*router.Router, *simcore.RNG, []int) {
	t.Helper()
	n := d.RouterPorts + 1
	specs := make([]router.PortSpec, n)
	for port := range specs {
		kind, peer, peerPort := topology.PortRing, id, port
		if port < d.RouterPorts {
			kind, peer, peerPort = d.Peer(id, port)
		}
		ps := router.PortSpec{Kind: kind, Peer: peer, PeerPort: peerPort, UpRouter: peer, UpPort: peerPort, Latency: 10}
		nvc := 3
		switch kind {
		case topology.PortNone:
			nvc = 0
		case topology.PortNode:
			ps.Peer, ps.PeerPort, ps.UpRouter, ps.UpPort = -1, -1, -1, -1
		case topology.PortGlobal:
			nvc = 2
		}
		for vc := 0; vc < nvc; vc++ {
			ring := -1
			if kind == topology.PortRing || kind != topology.PortNode && rng.IntN(5) == 0 {
				ring = 0
			}
			ps.InCaps, ps.InRing = append(ps.InCaps, 4), append(ps.InRing, -1)
			ps.OutCaps, ps.OutRing = append(ps.OutCaps, 2+rng.IntN(5)), append(ps.OutRing, ring)
		}
		specs[port] = ps
	}
	rrng := simcore.NewRNG(rng.Uint64())
	rt := router.New(router.Params{
		ID: id, Topo: d, PktSize: 8, AllocIters: 3,
		RNG: rrng, Ports: specs, RingOuts: []int{d.RouterPorts}, Packets: &testPackets,
	})
	var wired []int
	for port := range rt.Out {
		if rt.Out[port].Kind != topology.PortNone {
			wired = append(wired, port)
		}
	}
	// Busy outputs: the k-th busy output is granted to the k-th wired input.
	target := map[int]int{}
	inputs := wired
	for _, port := range wired {
		if rng.IntN(3) == 0 {
			target[inputs[0]] = port
			arrive(rt, inputs[0], 0, newPkt(d, 0, d.Nodes-1))
			inputs = inputs[1:]
		}
	}
	eng := &candEngine{route: func(_ *router.Router, in router.InCtx, _ *packet.Packet, _ int64) (router.Request, bool) {
		out, ok := target[in.Port]
		return router.Request{Out: uint8(out)}, ok
	}}
	if g := rt.Cycle(eng, 0); len(g) != len(target) {
		t.Fatalf("setup granted %d of %d busy outputs", len(g), len(target))
	}
	for _, port := range wired {
		op := &rt.Out[port]
		if rng.IntN(10) == 0 {
			rt.FailOutput(port)
		}
		if op.Kind == topology.PortNode {
			continue
		}
		for vc := 0; vc < op.NumVCs(); vc++ {
			op.SetCredits(vc, rng.IntN(op.VCCap(vc)+1))
		}
	}
	return rt, rrng, inputs
}

// candEngine routes by a function; AtInjection does nothing.
type candEngine struct {
	route func(*router.Router, router.InCtx, *packet.Packet, int64) (router.Request, bool)
}

func (e *candEngine) AtInjection(*router.Router, *packet.Packet, int64) {}
func (e *candEngine) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return e.route(rt, in, p, now)
}

// candQuery is one Candidates/pickAmong query.
type candQuery struct {
	base, count, exclude, hops int
	th                         float64
	strict                     bool
}

func (q candQuery) String() string {
	return fmt.Sprintf("[%d,+%d) excl %d hops %d th %v strict %v", q.base, q.count, q.exclude, q.hops, q.th, q.strict)
}

func randomCandQuery(d *topology.Dragonfly, rt *router.Router, rng *rand.Rand) candQuery {
	q := candQuery{base: d.LocalPortBase(), count: d.A - 1, hops: rng.IntN(4), strict: rng.IntN(2) == 0}
	switch rng.IntN(3) {
	case 0:
		q.base, q.count = d.GlobalPortBase(), d.H
	case 1:
		q.base, q.count = 0, len(rt.Out) // every kind, node and ring ports included
	}
	q.exclude = rng.IntN(len(rt.Out))
	switch rng.IntN(4) {
	case 0:
		q.th = 0.4 // the static policy's bound
	case 1:
		q.th = 0.9 * rt.Out[rng.IntN(len(rt.Out))].Occupancy() // the variable policy's
	case 2:
		q.th = float64(rng.IntN(3)) / 2
	default:
		q.th = rng.Float64()
	}
	return q
}

// TestCandidatesMatchScan holds router.Router.Candidates and pickAmong to
// the per-port scan they replaced, over random router states: busy, dead
// and unwired (PortNone) outputs, escape VCs among the class VCs, credits
// from 0 to capacity, and thresholds of both policies with and without
// strictness. Outside a formRequests pass, each query must give the scan's
// candidate mask, chosen port, draw count (the RNG state after the draw)
// and read set. Inside a pass, where Candidates memoizes, every head's
// queries — repeated keys, keys that differ only in threshold or hop class,
// more keys than the memo holds — must still return the scan's masks and
// note exactly the ranges queried.
func TestCandidatesMatchScan(t *testing.T) {
	d, err := topology.New(2, 4, 2, 5) // 5 of 9 groups: some global ports unwired
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 7))
	p := newPkt(d, 0, d.Nodes-1)
	for trial := 0; trial < 400; trial++ {
		rt, rrng, free := randomCandRouter(t, d, rng.IntN(d.Routers), rng)
		now := int64(1 + 7*rng.IntN(2)) // cycle 8: the busy outputs have just freed
		cfg := DefaultConfig()
		cfg.LeastOccupied = rng.IntN(4) == 0
		e := New(d, cfg)
		var reads uint64 // what the router has been noted to read, cumulatively
		for k := 0; k < 8; k++ {
			q := randomCandQuery(d, rt, rng)
			p.GlobalHops = int16(q.hops)
			rt.NoteRead(q.exclude) // Route notes the minimal port before misrouting
			before := rrng.State()
			twin := simcore.NewRNG(0)
			if err := twin.SetState(before); err != nil {
				t.Fatal(err)
			}
			wantReq, wantOK, wantMask, wantReads := scanPick(cfg, rt, q.base, q.count, q.exclude, q.th, q.strict, p, now, twin)
			reads |= wantReads | 1<<uint(q.exclude)
			req, ok := e.pickAmong(rt, q.base, q.count, q.exclude, q.th, q.strict, p, now)
			if req != wantReq || ok != wantOK {
				t.Fatalf("trial %d %v: pickAmong %+v %v, scan %+v %v", trial, q, req, ok, wantReq, wantOK)
			}
			if rrng.State() != twin.State() {
				t.Fatalf("trial %d %v: the draw count differs from the scan's", trial, q)
			}
			if m := rt.Candidates(q.base, q.count, q.hops, q.th, q.strict, now) &^ (1 << uint(q.exclude)); m != wantMask {
				t.Fatalf("trial %d %v: mask %b, scan %b", trial, q, m, wantMask)
			}
			if got := rt.ReadSet(); got != reads {
				t.Fatalf("trial %d %v: read set %b, scan %b", trial, q, got, reads)
			}
		}
		// The same state seen from inside a pass: a head per free input,
		// each running the same queries (the later heads hit the memo).
		var qs []candQuery
		for k := 0; k < 6; k++ {
			q := randomCandQuery(d, rt, rng)
			qs = append(qs, q)
			if rng.IntN(2) == 0 { // a key that differs in the threshold or the hop class only
				q.th += 0.25
				qs = append(qs, q)
			} else {
				q.hops++
				qs = append(qs, q)
			}
		}
		heads := 0
		eng := &candEngine{route: func(rt *router.Router, _ router.InCtx, _ *packet.Packet, now int64) (router.Request, bool) {
			heads++
			var ranges uint64
			for _, q := range qs {
				p.GlobalHops = int16(q.hops)
				_, _, want, _ := scanPick(Config{LeastOccupied: true}, rt, q.base, q.count, -1, q.th, q.strict, p, now, nil) // draws nothing
				if m := rt.Candidates(q.base, q.count, q.hops, q.th, q.strict, now); m != want {
					t.Fatalf("trial %d head %d %v: mask in a pass %b, scan %b", trial, heads, q, m, want)
				}
				ranges |= (1<<uint(q.count) - 1) << uint(q.base)
			}
			if got := rt.ReadSet(); got != ranges {
				t.Fatalf("trial %d head %d: read set in a pass %b, want the queried ranges %b", trial, heads, got, ranges)
			}
			return router.Request{}, false
		}}
		for _, ip := range free[:min(3, len(free))] {
			arrive(rt, ip, 0, newPkt(d, 0, d.Nodes-1))
		}
		rt.Cycle(eng, now)
		if want := min(3, len(free)); heads != want {
			t.Fatalf("trial %d: %d heads routed, want %d", trial, heads, want)
		}
	}
}
