package router

import (
	"fmt"
	"testing"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// propRouter builds a standalone router with the given geometry for
// allocator property tests: every port doubles as input and output, local
// kind, and effectively unbounded buffers/credits so that fairness runs can
// grant thousands of packets without refund bookkeeping.
func propRouter(t testing.TB, ports, vcs, iters int) *Router {
	t.Helper()
	perPort := make([]int, ports)
	for i := range perPort {
		perPort[i] = vcs
	}
	return shapedRouter(t, perPort, iters, 1<<17)
}

// shapedRouter is propRouter with port i holding vcs[i] VCs of the given
// capacity (packets, and credits downstream).
func shapedRouter(t testing.TB, vcs []int, iters, capacity int) *Router {
	t.Helper()
	d, err := topology.New(1, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]PortSpec, len(vcs))
	for i := range specs {
		caps := make([]int, vcs[i])
		rings := make([]int, vcs[i])
		for vc := range caps {
			caps[vc] = capacity
			rings[vc] = -1
		}
		specs[i] = PortSpec{
			Kind: topology.PortLocal, Peer: 1, PeerPort: 0, UpRouter: 1, UpPort: 0,
			Latency: 10, InCaps: caps, InRing: rings, OutCaps: caps, OutRing: rings,
		}
	}
	return New(Params{
		ID: 0, Topo: d, PktSize: 8, AllocIters: iters,
		RNG:   simcore.NewRNG(99),
		Ports: specs,
	})
}

// drainDue emulates the network's drain completion: once a granted packet
// has streamed out (the input port is no longer busy next cycle), free its
// buffer slot.
func drainDue(r *Router, now int64) {
	for ip := range r.In {
		for vc := range r.In[ip].VCs {
			b := &r.In[ip].VCs[vc]
			if b.Draining() && !r.In[ip].Busy(now+1) {
				r.FinishDrain(ip, vc)
			}
		}
	}
}

// TestAllocatorLRSFairnessProperty: with every VC of every input port
// persistently requesting the same output, LRS arbitration must serve each
// requester within `requesters` consecutive service rounds (a round = one
// packet time of the contended output). That strict round-robin gap implies
// the documented guarantee that no persistent requester waits longer than
// numVCs × AllocIters rounds on any geometry where requesters ≤
// numVCs × AllocIters, and — more importantly — rules out starvation for
// any requester count.
func TestAllocatorLRSFairnessProperty(t *testing.T) {
	cases := []struct {
		ports, vcs, iters int
	}{
		{1, 1, 1},
		{1, 3, 1},
		{1, 3, 3},
		{1, 8, 3},
		{2, 3, 3},
		{4, 2, 3},
		{4, 4, 1},
		{3, 5, 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p%d_v%d_i%d", tc.ports, tc.vcs, tc.iters), func(t *testing.T) {
			// One extra port is the contended output; tc.ports are inputs.
			r := propRouter(t, tc.ports+1, tc.vcs, tc.iters)
			out := tc.ports // all requests target the last port
			eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
				if in.Port == out {
					return Request{}, false
				}
				return Request{Out: uint8(out), VC: 0}, true
			}}
			var pool packet.Pool
			requesters := tc.ports * tc.vcs
			rounds := 6 * requesters // enough for several full LRS sweeps
			// Keep every VC persistently backlogged.
			refill := func() {
				for ip := 0; ip < tc.ports; ip++ {
					for vc := 0; vc < tc.vcs; vc++ {
						for r.In[ip].VCs[vc].Len() < 2 {
							push(r, ip, vc, &pool)
						}
					}
				}
			}
			lastServed := make(map[[2]int]int) // (port,vc) -> round index
			round := 0
			for now := int64(0); round < rounds; now++ {
				refill()
				grants := r.Cycle(eng, now)
				if len(grants) > 1 {
					t.Fatalf("round %d: %d grants for one output", round, len(grants))
				}
				for _, g := range grants {
					key := [2]int{g.InPort, g.InVC}
					if last, seen := lastServed[key]; seen {
						if gap := round - last; gap > requesters {
							t.Fatalf("requester %v re-served after %d rounds; LRS bound is %d (requesters), documented bound numVCs*iters=%d",
								key, gap, requesters, tc.vcs*tc.iters)
						}
					} else if round >= requesters {
						t.Fatalf("requester %v first served only in round %d of %d requesters", key, round, requesters)
					}
					lastServed[key] = round
				}
				drainDue(r, now)
				if len(grants) > 0 {
					round++
					// Skip to the end of the packet service time: the output
					// is busy anyway, so these cycles cannot grant.
					now += int64(r.PktSize) - 1
				}
			}
			if len(lastServed) != requesters {
				t.Fatalf("only %d of %d requesters ever served: %v", len(lastServed), requesters, lastServed)
			}
		})
	}
}

// reqTable maps (input port, vc) to a requested output port.
type reqTable map[[2]int]int

func tableEngine(tab reqTable) scriptEngine {
	return scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		out, ok := tab[[2]int{in.Port, in.VC}]
		return Request{Out: uint8(out), VC: 0}, ok
	}}
}

// checkMatching verifies the structural allocator invariants for a single
// Cycle's grants against the request table: at most one grant per input
// port and per output port, every grant matches a submitted request, and
// the matching is maximal — no requesting input and requested output are
// both left unmatched.
func checkMatching(t *testing.T, tab reqTable, grants []Grant) {
	t.Helper()
	inUsed := map[int]bool{}
	outUsed := map[uint8]bool{}
	for _, g := range grants {
		if want, ok := tab[[2]int{g.InPort, g.InVC}]; !ok || want != int(g.Req.Out) {
			t.Fatalf("grant %+v does not correspond to a submitted request", g)
		}
		if inUsed[g.InPort] {
			t.Fatalf("input port %d granted twice", g.InPort)
		}
		if outUsed[g.Req.Out] {
			t.Fatalf("output port %d granted twice", g.Req.Out)
		}
		inUsed[g.InPort] = true
		outUsed[g.Req.Out] = true
	}
	for key, out := range tab {
		if !inUsed[key[0]] && !outUsed[uint8(out)] {
			t.Fatalf("matching not maximal: request %v -> %d has both endpoints free (grants %+v)",
				key, out, grants)
		}
	}
}

// TestAllocatorMatchingProperties is the table-driven pin of the separable
// allocator's matching behavior: grant counts for known geometries —
// including the documented maximal-not-maximum case, where a maximum
// matching of size 2 exists but the iSLIP-like allocator correctly settles
// for 1 — plus the structural invariants for each.
func TestAllocatorMatchingProperties(t *testing.T) {
	cases := []struct {
		name       string
		ports, vcs int
		iters      int
		tab        reqTable
		wantGrants int
	}{
		{
			// Input 0 wins out2 (tie-break on lower index); its VC1
			// alternative out1 cannot also be served because input 0 is
			// already matched. Maximum matching: {0->1, 1->2} = 2.
			name: "maximal_not_maximum", ports: 3, vcs: 2, iters: 3,
			tab:        reqTable{{0, 0}: 2, {0, 1}: 1, {1, 0}: 2},
			wantGrants: 1,
		},
		{
			// The same shape with the VC preference inverted is recovered by
			// iteration 2: input 1 takes out2 after input 0 settles on out1.
			name: "iterative_recovery", ports: 3, vcs: 2, iters: 3,
			tab:        reqTable{{0, 0}: 1, {1, 0}: 1, {1, 1}: 2},
			wantGrants: 2,
		},
		{
			name: "single_iteration_misses_recovery", ports: 3, vcs: 2, iters: 1,
			tab:        reqTable{{0, 0}: 1, {1, 0}: 1, {1, 1}: 2},
			wantGrants: 1,
		},
		{
			name: "disjoint_outputs_all_granted", ports: 4, vcs: 1, iters: 1,
			tab:        reqTable{{0, 0}: 1, {1, 0}: 2, {2, 0}: 3, {3, 0}: 0},
			wantGrants: 4,
		},
		{
			name: "full_contention_single_grant", ports: 4, vcs: 2, iters: 3,
			tab: reqTable{
				{0, 0}: 3, {0, 1}: 3, {1, 0}: 3, {1, 1}: 3,
				{2, 0}: 3, {2, 1}: 3, {3, 0}: 3, {3, 1}: 3,
			},
			wantGrants: 1,
		},
		{
			// Chain shape: the allocator settles on {0->1, 2->2}, leaving
			// input 1 with both its outputs taken — maximal (size 2) though
			// the maximum {0->1, 1->2, 2->3} has size 3, and no amount of
			// iterations revisits a settled grant.
			name: "chain_maximal_not_maximum", ports: 4, vcs: 2, iters: 4,
			tab:        reqTable{{0, 0}: 1, {1, 0}: 1, {1, 1}: 2, {2, 0}: 2, {2, 1}: 3},
			wantGrants: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := propRouter(t, tc.ports, tc.vcs, tc.iters)
			var pool packet.Pool
			for key := range tc.tab {
				push(r, key[0], key[1], &pool)
			}
			grants := r.Cycle(tableEngine(tc.tab), 0)
			if len(grants) != tc.wantGrants {
				t.Fatalf("got %d grants, want %d: %+v", len(grants), tc.wantGrants, grants)
			}
			if tc.iters >= tc.ports {
				// With ≥ports iterations the allocator is maximal: every
				// iteration with an eligible request grants at least once.
				checkMatching(t, tc.tab, grants)
			}
		})
	}
}

// TestAllocatorRandomizedMatching throws deterministic pseudo-random
// request tables at the allocator and asserts the structural invariants on
// every one of them. AllocIters = ports guarantees maximality (each
// iteration either grants or proves no eligible pair remains), so the
// maximality clause of checkMatching applies to all trials.
func TestAllocatorRandomizedMatching(t *testing.T) {
	const ports, vcs, trials = 5, 3, 300
	rng := simcore.NewRNG(0xA110C)
	for trial := 0; trial < trials; trial++ {
		r := propRouter(t, ports, vcs, ports)
		var pool packet.Pool
		tab := reqTable{}
		for ip := 0; ip < ports; ip++ {
			for vc := 0; vc < vcs; vc++ {
				if rng.Bernoulli(0.6) {
					tab[[2]int{ip, vc}] = rng.Intn(ports)
					push(r, ip, vc, &pool)
				}
			}
		}
		grants := r.Cycle(tableEngine(tab), 0)
		checkMatching(t, tab, grants)
	}
}

// lrsModel is the reference least-recently-served arbiter, kept apart from
// the router's rank rows: the cycle of each requester's last grant (-1 while
// never served). It picks the eligible requester served longest ago, the
// lower index on a tie, and -1 when nobody is eligible.
type lrsModel []int64

func newLRSModel(n int) lrsModel {
	m := make(lrsModel, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

func (m lrsModel) pick(eligible func(i int) bool) int {
	best := -1
	for i, t := range m {
		if eligible(i) && (best == -1 || t < m[best]) {
			best = i
		}
	}
	return best
}

func (m lrsModel) grant(i int, now int64) { m[i] = now }

// TestAllocatorMatchesLRSModel drives each of the allocator's two arbiters
// alone — several inputs contending for one output, and several VCs of one
// input bound for distinct outputs — with a random set of requesters per
// round, and requires the grant an lrsModel shadow of the same grants
// predicts. The upper half of the requesters stays silent for the first
// third of the rounds, so never-served ties are broken mid-run, against
// requesters served long ago; the 64-wide case fills a rank row to the
// validation limit.
func TestAllocatorMatchesLRSModel(t *testing.T) {
	const rounds = 600
	for _, stage := range []string{"output_arbiter", "input_arbiter"} {
		t.Run(stage, func(t *testing.T) {
			for _, width := range []int{5, 64} {
				t.Run(fmt.Sprint(width), func(t *testing.T) {
					testArbiterAgainstModel(t, stage == "output_arbiter", width, rounds)
				})
			}
		})
	}
}

func testArbiterAgainstModel(t *testing.T, byOutput bool, width, rounds int) {
	// Output stage: inputs 0..width-1 (one VC each) all request port 0.
	// Input stage: VC v of port 0 requests port v.
	vcs := make([]int, width)
	for i := range vcs {
		vcs[i] = 1
	}
	if !byOutput {
		vcs[0] = width
	}
	r := shapedRouter(t, vcs, 1, rounds)
	slot := func(i int) (port, vc int) {
		if byOutput {
			return i, 0
		}
		return 0, i
	}
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		if byOutput {
			return Request{Out: 0}, true
		}
		return Request{Out: uint8(in.VC)}, in.Port == 0
	}}
	model := newLRSModel(width)
	rng := simcore.NewRNG(0x125)
	var pool packet.Pool
	granted := 0
	for round := range rounds {
		now := int64(round * r.PktSize)
		for i := 0; i < width; i++ {
			if i >= width/2 && round < rounds/3 {
				continue
			}
			if port, vc := slot(i); r.In[port].VCs[vc].Len() == 0 && rng.Bernoulli(0.5) {
				push(r, port, vc, &pool)
			}
		}
		want := model.pick(func(i int) bool {
			port, vc := slot(i)
			return r.In[port].VCs[vc].Len() > 0
		})
		grants := r.Cycle(eng, now)
		got := -1
		if len(grants) == 1 {
			got = grants[0].InPort
			if !byOutput {
				got = grants[0].InVC
			}
			model.grant(got, now)
			granted++
		}
		if len(grants) > 1 || got != want {
			t.Fatalf("round %d: allocator granted %+v, LRS model picks requester %d", round, grants, want)
		}
		drainDue(r, now+int64(r.PktSize)-1) // the grant has streamed out by the next round
	}
	if granted < rounds/2 {
		t.Fatalf("only %d grants in %d rounds", granted, rounds)
	}
}
