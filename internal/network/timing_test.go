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
