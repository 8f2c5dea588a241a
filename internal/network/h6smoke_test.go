package network

import (
	"testing"

	"ofar/internal/traffic"
)

// TestH6ShardedSmoke is the CI gate for the full-scale regime: 200 cycles of
// the paper's h=6 system (876 routers, 5256 nodes), groups walked by the
// caller versus stolen by a 4-worker pool (cutover forced to 1 so the pool
// genuinely dispatches on any host), compared digest-for-digest after every
// cycle. It runs even under -short — this is the check the CI smoke step
// builds on — and is deliberately per-cycle: an ordering bug in the ordered
// commit would be caught at the first divergent cycle, not smeared into an
// end-of-run aggregate.
func TestH6ShardedSmoke(t *testing.T) {
	const cycles = 200
	mk := func(shard bool) *Network {
		cfg := DefaultConfig(6)
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

// TestH6WindowedSmoke is the CI gate for the lookahead windows at full
// scale: 200 cycles of the h=6 system in Run(20) chunks — twenty-cycle
// windows, the benchmark's own call — walked by the caller and stolen by a
// 4-worker pool (cutover forced to 1), against a reference stepped one cycle
// at a time, grant digests compared after every chunk.
func TestH6WindowedSmoke(t *testing.T) {
	const cycles, chunk = 200, 20
	mk := func(workers int) *Network {
		cfg := DefaultConfig(6)
		cfg.Workers = workers
		n := mustPoolNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 6), 0.5, cfg.PacketSize))
		n.EnableGrantDigest()
		return n
	}
	ref, caller, pool := mk(1), mk(1), mk(4)
	for c := chunk; c <= cycles; c += chunk {
		for ref.Now() < int64(c) {
			ref.Step()
		}
		caller.Run(chunk)
		pool.Run(chunk)
		rd, rc := ref.GrantDigest()
		for name, n := range map[string]*Network{"caller": caller, "pool4": pool} {
			if d, dc := n.GrantDigest(); d != rd || dc != rc {
				t.Fatalf("cycle %d: %s digest %016x (%d events), per-cycle reference %016x (%d events)", c, name, d, dc, rd, rc)
			}
		}
	}
	if ref.Stats.Delivered == 0 {
		t.Fatal("nothing delivered in the smoke window")
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
