package network

import (
	"fmt"
	"math"
	"testing"

	"ofar/internal/traffic"
)

// TestRouteCacheDifferential is the memoization-correctness oracle: an h=3
// run with the route cache enabled must be indistinguishable from the same
// run with DisableRouteCache — identical grant digests, identical per-router
// state fingerprints after every cycle, and identical end-of-run statistics —
// for every routing under uniform and adversarial traffic, at a low, a mid,
// and a saturating load. Any cache entry replayed when its read set had
// changed would commit a different grant or leave different buffer/credit
// state and fail here within a cycle of the divergence; so would a PAR call
// replayed at all, since PAR records no read set.
func TestRouteCacheDifferential(t *testing.T) {
	cycles := 800
	if testing.Short() {
		cycles = 250
	}
	for _, load := range []float64{0.2, 0.6, 0.9} {
		t.Run(fmt.Sprintf("load=%.1f", load), func(t *testing.T) {
			for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
				for _, adv := range []bool{false, true} {
					name := string(rt) + "/UN"
					if adv {
						name = string(rt) + "/ADV+h"
					}
					t.Run(name, func(t *testing.T) { routeCacheDifferential(t, rt, adv, load, cycles) })
				}
			}
		})
	}
}

// routeCacheDifferential runs one routing × pattern × load of
// TestRouteCacheDifferential.
func routeCacheDifferential(t *testing.T, rt Routing, adv bool, load float64, cycles int) {
	mk := func(noCache bool) *Network {
		cfg := DefaultConfig(3).WithRouting(rt)
		cfg.Seed = 99
		cfg.DisableRouteCache = noCache
		n := mustNet(t, cfg)
		var pat traffic.Pattern = traffic.NewUniform(n.Topo)
		if adv {
			pat = traffic.NewAdv(n.Topo, n.Topo.H)
		}
		n.SetGenerator(traffic.NewBernoulli(pat, load, cfg.PacketSize))
		n.EnableGrantDigest()
		n.Stats.StartMeasurement(0)
		return n
	}
	on, off := mk(false), mk(true)
	for c := 0; c < cycles; c++ {
		on.Step()
		off.Step()
		d1, n1 := on.GrantDigest()
		d2, n2 := off.GrantDigest()
		if d1 != d2 || n1 != n2 {
			t.Fatalf("cycle %d: grant digests diverge: cache-on %016x (%d events), cache-off %016x (%d events)",
				c, d1, n1, d2, n2)
		}
		for i := range on.Routers {
			if f1, f2 := on.Routers[i].StateFingerprint(), off.Routers[i].StateFingerprint(); f1 != f2 {
				t.Fatalf("cycle %d: router %d state fingerprints diverge: cache-on %016x, cache-off %016x",
					c, i, f1, f2)
			}
		}
	}
	ss, ps := on.Stats, off.Stats
	if ss.Delivered == 0 {
		t.Fatal("nothing delivered — the load exercised no traffic")
	}
	if ss.Generated != ps.Generated || ss.Injected != ps.Injected || ss.Delivered != ps.Delivered {
		t.Fatalf("populations diverge: cache-on gen/inj/del %d/%d/%d, cache-off %d/%d/%d",
			ss.Generated, ss.Injected, ss.Delivered, ps.Generated, ps.Injected, ps.Delivered)
	}
	if math.Float64bits(ss.AvgLatency()) != math.Float64bits(ps.AvgLatency()) ||
		ss.MaxLatency() != ps.MaxLatency() {
		t.Fatalf("latencies diverge: cache-on avg %v max %d, cache-off avg %v max %d",
			ss.AvgLatency(), ss.MaxLatency(), ps.AvgLatency(), ps.MaxLatency())
	}
	if ss.GlobalMisroutes != ps.GlobalMisroutes || ss.LocalMisroutes != ps.LocalMisroutes ||
		ss.RingEnters != ps.RingEnters || ss.RingExits != ps.RingExits {
		t.Fatalf("routing decisions diverge: cache-on %d/%d/%d/%d, cache-off %d/%d/%d/%d",
			ss.GlobalMisroutes, ss.LocalMisroutes, ss.RingEnters, ss.RingExits,
			ps.GlobalMisroutes, ps.LocalMisroutes, ps.RingEnters, ps.RingExits)
	}
	if err := on.CheckConservation(); err != nil {
		t.Fatalf("cache-on: %v", err)
	}
	if err := off.CheckConservation(); err != nil {
		t.Fatalf("cache-off: %v", err)
	}
}
