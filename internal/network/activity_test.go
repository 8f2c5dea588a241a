package network

import (
	"fmt"
	"testing"

	"ofar/internal/traffic"
)

// idleConfig returns a serial test configuration for one routing mechanism,
// covering the VC requirements of every engine (see Config.WithRouting).
func idleConfig(rt Routing) Config { return testConfig(rt) }

// requireIdlePurity calls Cycle directly on every router of a quiescent
// network and requires the call to be side-effect-free: no grants, no RNG
// draws, no arbiter LRS movement, no buffer/credit/occupancy change (all
// folded into Router.StateFingerprint), and untouched run statistics. This
// is the contract of Cycle's early return. The returned slice must be empty
// even when the router's last working Cycle left grants in its reused slice:
// the router stage commits whatever it returns, idle routers included.
func requireIdlePurity(t *testing.T, n *Network) {
	t.Helper()
	gen, inj, del := n.Stats.Generated, n.Stats.Injected, n.Stats.Delivered
	for _, r := range n.Routers {
		if r.RoutableVCs() > 0 {
			t.Fatalf("router %d reports routable work on a quiescent network (%d ready VCs)",
				r.ID, r.RoutableVCs())
		}
		before := r.StateFingerprint()
		for i := 0; i < 3; i++ {
			if grants := r.Cycle(n.Engine, n.Now()+int64(i)); len(grants) != 0 {
				t.Fatalf("router %d: idle Cycle returned %d (stale) grants", r.ID, len(grants))
			}
		}
		if after := r.StateFingerprint(); after != before {
			t.Fatalf("router %d: idle Cycle mutated state (fingerprint %016x -> %016x): "+
				"RNG draw, arbiter movement or occupancy change on an idle router",
				r.ID, before, after)
		}
	}
	if n.Stats.Generated != gen || n.Stats.Injected != inj || n.Stats.Delivered != del {
		t.Fatal("idle cycles changed run statistics")
	}
}

// TestIdleCycleIsPure proves, for every engine, that Cycle on a router with
// no routable buffer head is a no-op — first on a freshly built network,
// then again after real traffic has exercised the arbiters, RNG streams and
// credit loops and fully drained.
func TestIdleCycleIsPure(t *testing.T) {
	for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := idleConfig(rt)
			n := mustNet(t, cfg)
			requireIdlePurity(t, n)

			n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 3, n.Topo.Nodes))
			if _, ok := n.RunUntilDrained(200000); !ok {
				t.Fatalf("burst not drained: %d/%d", n.Stats.Delivered, n.Stats.Generated)
			}
			// Let straggler credit events land so the network is quiescent.
			n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
			requireIdlePurity(t, n)
		})
	}
}

// TestActiveSetTracksLoad watches the ActiveRouters scan: a quiescent network
// has no router with routable work, traffic gives some of them work, and
// draining leaves none.
func TestActiveSetTracksLoad(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	if got := n.ActiveRouters(); got != 0 {
		t.Fatalf("fresh network has %d active routers, want 0", got)
	}
	n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 2, n.Topo.Nodes))
	n.Run(5)
	if got := n.ActiveRouters(); got == 0 {
		t.Fatal("no routers active with a burst in flight")
	}
	if _, ok := n.RunUntilDrained(200000); !ok {
		t.Fatalf("burst not drained: %d/%d", n.Stats.Delivered, n.Stats.Generated)
	}
	n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
	if got := n.ActiveRouters(); got != 0 {
		t.Fatalf("%d routers still active after draining, want 0", got)
	}
	for _, r := range n.Routers {
		if r.RoutableVCs() != 0 {
			t.Fatalf("router %d: %d ready VCs after drain", r.ID, r.RoutableVCs())
		}
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestReadyVCCounterMatchesBuffers cross-checks the incrementally tracked
// routable heads — each port's ready bitset, and RoutableVCs, which counts
// them over the router's readyPorts mask — against a from-scratch scan of
// the buffers, in the middle of a loaded run: readyPorts gates Cycle's early
// return, so a drift would mean skipped work.
func TestReadyVCCounterMatchesBuffers(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
	for c := 0; c < 600; c++ {
		n.Step()
		if c%50 != 0 {
			continue
		}
		for _, r := range n.Routers {
			want := 0
			for i := range r.In {
				var wantMask uint64
				for vc := range r.In[i].VCs {
					buf := &r.In[i].VCs[vc]
					if buf.Len() > 0 && !buf.Draining() {
						want++
						wantMask |= 1 << uint(vc)
					}
				}
				// The per-port ready bitset the allocator iterates must agree
				// bit for bit with the routable-head predicate.
				if got := r.In[i].ReadyMask(); got != wantMask {
					t.Fatalf("cycle %d router %d port %d: ready mask %b, buffers say %b", c, r.ID, i, got, wantMask)
				}
			}
			if got := r.RoutableVCs(); got != want {
				t.Fatalf("cycle %d router %d: tracked %d ready VCs, buffers hold %d", c, r.ID, got, want)
			}
		}
	}
}

// BenchmarkStepByLoad is the in-package per-cycle cost tracker: h=3 cycle
// cost across the load range of the paper's latency/throughput sweeps (most
// sweep points sit below saturation, where most routers are idle), without a
// pool and with 4 and 8 pool workers. The pooled rows go through the cutover
// exactly as production runs do. For working measurements only — the numbers
// that count come from bench/.
func BenchmarkStepByLoad(b *testing.B) {
	for _, load := range []float64{0.05, 0.2, 0.5, 0.9, 0.99} {
		for _, workers := range []int{0, 4, 8} {
			wname := "serial"
			if workers > 0 {
				wname = fmt.Sprintf("workers%d", workers)
			}
			b.Run(fmt.Sprintf("load=%.2f/%s", load, wname), func(b *testing.B) {
				cfg := DefaultConfig(3)
				cfg.Workers = workers
				n := mustNet(b, cfg)
				n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
				n.Run(2000) // reach steady state before measuring
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
			})
		}
	}

	// Full-scale h=6 rows (876 routers, 5256 nodes): the routine figure
	// regime (see EXPERIMENTS.md). No pool ("serial") vs a 4-worker pool
	// ("shard4"), across the low/mid/saturated loads the paper's sweeps hit;
	// the shard4 rows go through the auto cutover, so on a single-P host they
	// measure the caller walking every phase exactly as a production run
	// would.
	//
	// Stretch-regime h=8 rows (a=16, 129 groups, 2064 routers, 16512 nodes):
	// only the edges of the load range — an h=8 warm-up alone costs hundreds
	// of milliseconds, so the mid-load rows would triple the suite's wall
	// clock for numbers the h=6 rows already track. The shorter warm-up (500
	// cycles) reaches a steady in-flight population at these loads; it is not
	// the paper-grade measurement protocol, just a cost tracker.
	//
	// Skipped under -short: each h=6 warm-up alone runs 2000 full-size cycles.
	if testing.Short() {
		return
	}
	for _, big := range []struct {
		h, warm int
		loads   []float64
	}{{6, 2000, []float64{0.05, 0.5, 0.9}}, {8, 500, []float64{0.05, 0.9}}} {
		for _, load := range big.loads {
			for _, mode := range []string{"serial", "shard4"} {
				b.Run(fmt.Sprintf("h%d/load=%.2f/%s", big.h, load, mode), func(b *testing.B) {
					cfg := DefaultConfig(big.h)
					if mode == "shard4" {
						cfg.Workers = 4
					}
					n := mustNet(b, cfg)
					n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
					n.Run(big.warm)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						n.Step()
					}
				})
			}
		}
	}
}

// BenchmarkStepPhases is the per-phase cost breakdown: the h=6 system with
// EnablePhaseTimings on, reporting each phase (fault application, event
// delivery, generation/injection, PB publication, router stage) as a custom
// <phase>-ns/op metric next to the whole-step ns/op. It is a separate
// benchmark rather than extra rows in StepByLoad so the timing branch's clock
// reads never contaminate the StepByLoad rows. The serial-vs-shard4 pair (no
// pool vs 4 workers) shows what the pool buys per phase: the generate-ns
// share must drop under shard4 while ns/op does not regress.
func BenchmarkStepPhases(b *testing.B) {
	if testing.Short() {
		b.Skip("phase breakdown warms up 2000 full-size h=6 cycles per row")
	}
	for _, load := range []float64{0.5, 0.9} {
		for _, mode := range []string{"serial", "shard4"} {
			b.Run(fmt.Sprintf("h6/load=%.2f/%s", load, mode), func(b *testing.B) {
				cfg := DefaultConfig(6)
				if mode == "shard4" {
					cfg.Workers = 4
				}
				n := mustNet(b, cfg)
				n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
				n.Run(2000) // reach steady state before measuring
				n.EnablePhaseTimings()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
				b.StopTimer()
				ph := n.PhaseTimings()
				if ph.Cycles > 0 {
					c := float64(ph.Cycles)
					b.ReportMetric(float64(ph.Faults)/c, "faults-ns/op")
					b.ReportMetric(float64(ph.Events)/c, "events-ns/op")
					b.ReportMetric(float64(ph.Generate)/c, "generate-ns/op")
					b.ReportMetric(float64(ph.PB)/c, "pb-ns/op")
					b.ReportMetric(float64(ph.Routers)/c, "routers-ns/op")
				}
			})
		}
	}
}
