package network

import (
	"fmt"
	"math"
	"testing"

	"ofar/internal/topology"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// replayNet returns a network of cfg with the given workers (a pool that
// takes every phase when > 1) replaying recs.
func replayNet(t *testing.T, cfg Config, workers int, recs []trace.Record) *Network {
	t.Helper()
	cfg.Workers = workers
	n := mustPoolNet(t, cfg)
	gen, err := traffic.NewTraceReplay(recs, n.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(gen)
	return n
}

// TestZeroLoadLatency pins the router's first timing law: a lone packet's
// latency is S + Σ(ℓᵢ+1) over the links it crosses — S cycles to serialize
// at ejection, and per link its latency plus the cycle the next router takes
// to route and grant the head. MIN, S=8, 10/100-cycle links: 8, 19, 120 and
// 131 cycles over no link, a local one, global+local and local+global+local,
// at h=2 and h=3 (subtests prefixed h3/), each at Workers 1 and 2 inside one
// long window.
func TestZeroLoadLatency(t *testing.T) {
	for _, h := range []int{2, 3} {
		cfg := DefaultConfig(h).WithRouting(MIN)
		d, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
		if err != nil {
			t.Fatal(err)
		}
		// Router 0's first global link lands on router far of group x; a
		// destination on far's group neighbour is one local hop further, and
		// a source on router 1 one local hop before router 0.
		_, far, _ := d.Peer(0, d.GlobalPortBase())
		x := d.GroupOf(far)
		if r, _ := d.GlobalEntry(0, x); r != 0 {
			t.Fatalf("h=%d: group 0 reaches group %d from router %d, not 0", h, x, r)
		}
		beyond := d.RouterAt(x, (d.LocalIndex(far)+1)%d.A)
		S, l, g := cfg.PacketSize, cfg.LocalLatency, cfg.GlobalLatency
		prefix := ""
		if h != 2 {
			prefix = fmt.Sprintf("h%d/", h)
		}
		for _, c := range []struct {
			name     string
			src, dst int
			want     int
		}{
			{"no-link", d.NodeAt(0, 0), d.NodeAt(0, 1), S},
			{"local", d.NodeAt(0, 0), d.NodeAt(1, 0), S + l + 1},
			{"global+local", d.NodeAt(0, 0), d.NodeAt(beyond, 0), S + g + 1 + l + 1},
			{"local+global+local", d.NodeAt(1, 0), d.NodeAt(beyond, 0), S + l + 1 + g + 1 + l + 1},
		} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s%s/workers=%d", prefix, c.name, w), func(t *testing.T) {
					n := replayNet(t, cfg, w, []trace.Record{{Cycle: 5, Src: int32(c.src), Dst: int32(c.dst), Size: uint16(S)}})
					n.Stats.StartMeasurement(0)
					n.Run(400)
					if got := n.Stats.MeasuredPackets(); got != 1 {
						t.Fatalf("%d packets delivered, want 1", got)
					}
					if got := n.Stats.MaxLatency(); got != int64(c.want) {
						t.Errorf("latency %d cycles, want %d", got, c.want)
					}
				})
			}
		}
	}
}

// TestZeroLoadLatencyValiant pins the same law on Valiant paths, which take
// two global hops: VAL packets sent one at a time (400 cycles apart, longer
// than any path takes) each arrive S + Σ(ℓᵢ+1) cycles after birth, the sum
// over the links their observed grants show, and every one crosses exactly
// two global links. h=2 and h=3, Workers 1 and 2.
func TestZeroLoadLatencyValiant(t *testing.T) {
	const packets, gap = 24, 400
	for _, h := range []int{2, 3} {
		cfg := DefaultConfig(h).WithRouting(VAL)
		S := cfg.PacketSize
		nodes := cfg.P * cfg.A * cfg.numGroups()
		var recs []trace.Record
		for i := range packets {
			src, dst := i*7%nodes, (i*13+5)%nodes
			recs = append(recs, trace.Record{Cycle: int64(5 + i*gap), Src: int32(src), Dst: int32(dst), Size: uint16(S)})
		}
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("h%d/workers=%d", h, w), func(t *testing.T) {
				n := replayNet(t, cfg, w, recs)
				var grants []GrantEvent // the grants of the packet in flight
				n.obs = grantFunc(func(g GrantEvent) { grants = append(grants, g) })
				for _, rec := range recs {
					n.Stats.StartMeasurement(n.Now())
					grants = grants[:0]
					n.Run(gap)
					if got := n.Stats.MeasuredPackets(); got != 1 {
						t.Fatalf("packet %d→%d born at %d: %d packets delivered in its window, want 1", rec.Src, rec.Dst, rec.Cycle, got)
					}
					want, globals := S, 0
					for _, g := range grants {
						if g.Src != rec.Src || g.Born != rec.Cycle {
							t.Fatalf("window of packet %d→%d born at %d logged a grant of %d→%d born at %d", rec.Src, rec.Dst, rec.Cycle, g.Src, g.Dst, g.Born)
						}
						switch n.Topo.PortKindOf(int(g.Out)) {
						case topology.PortLocal:
							want += cfg.LocalLatency + 1
						case topology.PortGlobal:
							want += cfg.GlobalLatency + 1
							globals++
						}
					}
					if globals != 2 {
						t.Errorf("packet %d→%d crossed %d global links, want 2", rec.Src, rec.Dst, globals)
					}
					if got := n.Stats.MaxLatency(); got != int64(want) {
						t.Errorf("packet %d→%d: latency %d cycles, want %d over its %d grants", rec.Src, rec.Dst, got, want, len(grants))
					}
				}
			})
		}
	}
}

// TestZeroLoadLatencyEscapeRing pins the law on escape-ring paths. At h=2
// under OFAR-L, a lone packet from router r0 to router r2 of its own group,
// two ring steps ahead, finds its minimal local link dead (a FaultLink at
// cycle 0). OFAR-L has no local misroute, so the head is routed at its
// birth cycle, blocks, and enters the ring once it has been blocked
// EscapeTimeout cycles; it leaves the ring at r1 onto the live local link to
// r2. Its latency is exactly
//
//	S + Σ(ℓᵢ+1) + EscapeTimeout
//
// with the sum over the links its observed grants show (a physical ring
// edge takes the local or global latency of the wire it stands for, an
// embedded one that of the canonical link it rides): the blocked wait
// before the ring-entry grant, then the zero-load law. The path takes at
// least one ring hop. Physical and embedded ring, Workers 1 and 2.
func TestZeroLoadLatencyEscapeRing(t *testing.T) {
	for _, ring := range []RingMode{RingPhysical, RingEmbedded} {
		cfg := DefaultConfig(2).WithRouting(OFARL)
		cfg.Ring = ring
		S, T := cfg.PacketSize, cfg.OFAR.EscapeTimeout
		latency := func(global bool) int {
			if global {
				return cfg.GlobalLatency
			}
			return cfg.LocalLatency
		}
		d, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := d.HamiltonianRing()
		if err != nil {
			t.Fatal(err)
		}
		r0 := -1
		for r := range d.A { // two local ring edges in a row in group 0
			if !rg.EdgeIsGlobal(r) && !rg.EdgeIsGlobal(rg.Next(r)) {
				r0 = r
				break
			}
		}
		if r0 < 0 {
			t.Fatal("group 0 has no two consecutive local ring edges")
		}
		r2 := rg.Next(rg.Next(r0))
		cfg.Faults = []Fault{{Cycle: 0, Kind: FaultLink, Router: r0, Port: d.LocalPortTo(r0, r2)}}
		rec := trace.Record{Cycle: 5, Src: int32(d.NodeAt(r0, 0)), Dst: int32(d.NodeAt(r2, 0)), Size: uint16(S)}
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", ring, w), func(t *testing.T) {
				n := replayNet(t, cfg, w, []trace.Record{rec})
				var grants []GrantEvent
				n.obs = grantFunc(func(g GrantEvent) { grants = append(grants, g) })
				n.Stats.StartMeasurement(0)
				n.Run(400)
				if got := n.Stats.MeasuredPackets(); got != 1 {
					t.Fatalf("%d packets delivered, want 1", got)
				}
				if len(grants) == 0 || grants[0].Cycle != rec.Cycle+int64(T) {
					t.Fatalf("grants %+v: want the first EscapeTimeout=%d cycles after birth at %d", grants, T, rec.Cycle)
				}
				want, ringHops := S+T, 0
				for _, g := range grants {
					out := &n.Routers[g.Router].Out[g.Out]
					if out.EscapeRing(int(g.VC)) >= 0 {
						ringHops++
					}
					switch kind := d.PortKindOf(int(g.Out)); kind {
					case topology.PortRing:
						want += latency(rg.EdgeIsGlobal(int(g.Router))) + 1
					case topology.PortLocal, topology.PortGlobal:
						want += latency(kind == topology.PortGlobal) + 1
					}
				}
				if ringHops == 0 {
					t.Errorf("no grant rode the ring: %+v", grants)
				}
				if got := n.Stats.MaxLatency(); got != int64(want) {
					t.Errorf("latency %d cycles, want %d over its %d grants %+v", got, want, len(grants), grants)
				}
			})
		}
	}
}

// TestCreditLoopBandwidth pins the second law: one saturated stream over
// one link of latency ℓ delivers min(1, B/(2ℓ+S+1)) phits per cycle with B
// phits of downstream VC buffer — a packet's credit comes back 2ℓ+S+1 cycles
// after it was granted (link, route, drain, credit link), so B/S packets
// cross per round trip until the link itself is the limit. Over a local link
// the loop is 29 cycles, which the paper's 32-phit local FIFO covers with 3
// phits to spare; over a global link (router 0's first, to its peer) it is
// 209, which the 256-phit global FIFO covers. The rate is counted over a
// steady-state window of S·loop·4 cycles, a whole number of loops, at Workers
// 1 and 2, at h=2 and h=3 (subtests h3/local/… and h3/global/…).
func TestCreditLoopBandwidth(t *testing.T) {
	for _, h := range []int{2, 3} {
		cfg := DefaultConfig(h).WithRouting(MIN)
		d, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
		if err != nil {
			t.Fatal(err)
		}
		_, far, _ := d.Peer(0, d.GlobalPortBase())
		local, prefix := "", ""
		if h != 2 {
			local, prefix = fmt.Sprintf("h%d/local/", h), fmt.Sprintf("h%d/", h)
		}
		S := cfg.PacketSize
		for _, c := range []struct {
			name    string // subtest prefix
			dst     int    // node the stream from node 0 goes to
			latency int
			bufs    []int
			setBuf  func(*Config, int)
		}{
			{local, cfg.P, cfg.LocalLatency, []int{8, 16, 24, 32}, func(c *Config, b int) { c.LocalBuf = b }},
			{prefix + "global/", d.NodeAt(far, 0), cfg.GlobalLatency, []int{64, 128, 192, 208, 216, 256}, func(c *Config, b int) { c.GlobalBuf = b }},
		} {
			loop := 2*c.latency + S + 1
			var recs []trace.Record
			for cyc := range 4000 {
				recs = append(recs, trace.Record{Cycle: int64(cyc), Src: 0, Dst: int32(c.dst), Size: uint16(S)})
			}
			for _, b := range c.bufs {
				for _, w := range []int{1, 2} {
					t.Run(fmt.Sprintf("%sB=%d/workers=%d", c.name, b, w), func(t *testing.T) {
						cfg := cfg
						c.setBuf(&cfg, b)
						n := replayNet(t, cfg, w, recs)
						n.Run(500) // past the first packet's arrival: steady state
						window := S * loop * 4
						before := n.Stats.Delivered
						n.Run(window)
						got := float64(int(n.Stats.Delivered-before)*S) / float64(window)
						if want := math.Min(1, float64(b)/float64(loop)); math.Abs(got-want) > 1e-9 {
							t.Errorf("%.4f phits/cycle, want min(1, %d/%d) = %.4f", got, b, loop, want)
						}
					})
				}
			}
		}
	}
}

// satNet returns a network of DefaultConfig(h) under routing rt with the
// given workers (the pool forced on when > 1), loaded with ADV+h at 0.8 —
// above saturation for every mechanism — and run for warm cycles.
func satNet(t *testing.T, h int, rt Routing, workers, warm int) *Network {
	t.Helper()
	cfg := DefaultConfig(h).WithRouting(rt)
	cfg.Workers = workers
	n := mustPoolNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, h), 0.8, cfg.PacketSize))
	n.Run(warm)
	return n
}

// TestVCTLaw pins virtual cut-through: a grant starts on a link only when
// the downstream VC has credit for the whole packet. Stepping saturated
// ADV+h runs one cycle at a time, every grant's output VC must be left with
// credits in [0, cap] — a grant that took credit the VC did not have drives
// it below 0 — and so must every other live VC. OFAR (its own credit
// checks, the escape ring) and PB (the baselines' VCFits) at h=2 and h=3,
// Workers 1 and 2.
func TestVCTLaw(t *testing.T) {
	for _, h := range []int{2, 3} {
		for _, rt := range []Routing{OFAR, PB} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("h%d/%s/workers=%d", h, rt, w), func(t *testing.T) {
					n := satNet(t, h, rt, w, 200)
					granted := 0
					// A one-cycle window commits its grants after the router
					// stage: the credits they see are the cycle's last.
					n.obs = grantFunc(func(g GrantEvent) {
						if g.Eject {
							return
						}
						granted++
						if c := n.Routers[g.Router].Out[g.Out].Credits(int(g.VC)); c < 0 {
							t.Fatalf("cycle %d: router %d port %d vc %d granted with %d credits left",
								g.Cycle, g.Router, g.Out, g.VC, c)
						}
					})
					for range 600 {
						n.Step()
						for _, r := range n.Routers {
							for po := range r.Out {
								op := &r.Out[po]
								if op.Kind == topology.PortNode || op.Kind == topology.PortNone {
									continue
								}
								for vc := range op.NumVCs() {
									if c := op.Credits(vc); c < 0 || c > op.VCCap(vc) {
										t.Fatalf("cycle %d: router %d port %d vc %d holds %d credits, cap %d",
											n.Now(), r.ID, po, vc, c, op.VCCap(vc))
									}
								}
							}
						}
					}
					if granted == 0 {
						t.Fatal("no link grants to check")
					}
				})
			}
		}
	}
}

// TestSerializationLaw pins the crossbar's bandwidth of one phit per cycle
// per port: a grant keeps its input and its output port busy for the S
// cycles the packet takes to serialize, so over a saturated ADV+h OFAR run
// consecutive grants on one (router, output port) and on one (router, input
// port) are at least S cycles apart, at h=2 and h=3, Workers 1 and 2.
func TestSerializationLaw(t *testing.T) {
	for _, h := range []int{2, 3} {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("h%d/workers=%d", h, w), func(t *testing.T) {
				n := satNet(t, h, OFAR, w, 300)
				S := int64(n.Cfg.PacketSize)
				type port struct {
					r int32
					p uint8
				}
				lastOut, lastIn := map[port]int64{}, map[port]int64{}
				tight := 0
				n.obs = grantFunc(func(g GrantEvent) {
					for _, c := range []struct {
						side string
						last map[port]int64
						key  port
					}{{"output", lastOut, port{g.Router, g.Out}}, {"input", lastIn, port{g.Router, g.InPort}}} {
						if prev, ok := c.last[c.key]; ok {
							if gap := g.Cycle - prev; gap < S {
								t.Fatalf("router %d %s port %d granted at cycles %d and %d, %d apart, want ≥ %d",
									g.Router, c.side, c.key.p, prev, g.Cycle, gap, S)
							} else if gap == S {
								tight++
							}
						}
						c.last[c.key] = g.Cycle
					}
				})
				n.Run(400)
				if tight == 0 {
					t.Fatal("no back-to-back grants: the run never saturated a port")
				}
			})
		}
	}
}
