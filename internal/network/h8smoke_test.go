package network

import (
	"testing"

	"ofar/internal/traffic"
)

// TestH8ShardedSmoke opens the stretch regime: 120 cycles of the h=8 system
// (a=16, 129 groups, 2064 routers, 16512 nodes — ~3× the paper's full-scale
// h=6 build), groups walked by the caller versus stolen by a 4-worker pool
// (cutover forced to 1), compared digest-for-digest after every cycle. Every
// phase is pooled here: Bernoulli traffic is group-local, so the generate
// phase runs through runShards too — at a group count (129) no other test
// reaches. The window is shorter than the h=6 smoke because each h=8 cycle
// costs roughly three h=6 cycles.
func TestH8ShardedSmoke(t *testing.T) {
	const cycles = 120
	mk := func(shard bool) *Network {
		cfg := DefaultConfig(8)
		if shard {
			cfg.Workers = 4
		}
		n := mustPoolNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
		n.EnableGrantDigest()
		return n
	}
	ref := mk(false)
	shard := mk(true)
	stepCompare(t, ref, map[string]*Network{"shard4": shard}, cycles)
	if ref.Stats.Delivered == 0 {
		t.Fatal("nothing delivered in the smoke window")
	}
	if err := shard.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
