package network

import (
	"math"
	"testing"
	"unsafe"

	"ofar/internal/simcore"
	"ofar/internal/traffic"
)

// perNodeOnly hides a source's NextRange, leaving the per-node contract: the
// network must then draw through Next.
type perNodeOnly struct{ traffic.Generator }

// TestRangedDrawMatchesPerNodeDraw: a network drawing through NextRange and
// one drawing through the per-node Next loop from the same source produce the
// same run, bit for bit — also when dead sources split a group into several
// live runs.
func TestRangedDrawMatchesPerNodeDraw(t *testing.T) {
	for _, load := range []float64{0.05, 0.9} {
		cfg := snapCfg(1)
		cfg.PendingCap = 4
		cfg.Faults = []Fault{
			{Cycle: 200, Kind: FaultRouter, Router: 1},
			{Cycle: 300, Kind: FaultRouter, Router: 3},
			{Cycle: 300, Kind: FaultRouter, Router: 35},
		}
		ranged, perNode := mustNet(t, cfg), mustNet(t, cfg)
		src := traffic.NewTransient(traffic.NewUniform(ranged.Topo), traffic.NewAdv(ranged.Topo, 1), 350, load, cfg.PacketSize)
		ranged.SetGenerator(src)
		perNode.SetGenerator(perNodeOnly{src})
		_, isRanged := ranged.Generator().(traffic.RangeGenerator)
		_, hidden := perNode.Generator().(traffic.RangeGenerator)
		if !isRanged || hidden {
			t.Fatal("the two networks do not exercise the two draw paths")
		}
		ranged.EnableGrantDigest()
		perNode.EnableGrantDigest()
		ranged.Run(700)
		perNode.Run(700)
		expectSameState(t, "ranged vs per-node", ranged, perNode)
	}
}

// TestFoldIsBytewiseFNV1a: the zero-byte-skipping fold is FNV-1a over every
// value's eight little-endian bytes.
func TestFoldIsBytewiseFNV1a(t *testing.T) {
	ref := func(h uint64, vs ...int64) uint64 {
		for _, v := range vs {
			x := uint64(v)
			for i := 0; i < 8; i++ {
				h = (h ^ (x & 0xff)) * fnvPrime
				x >>= 8
			}
		}
		return h
	}
	rng := simcore.NewRNG(0xf01d)
	n := &Network{}
	n.EnableGrantDigest()
	want := fnvOffset
	check := func(vs ...int64) {
		t.Helper()
		n.digest.fold(vs...)
		want = ref(want, vs...)
		if n.digest.sum != want {
			t.Fatalf("fold(%v): digest %016x, byte-wise FNV-1a %016x", vs, n.digest.sum, want)
		}
	}
	check()
	check(0)
	check(0, 0, 0)
	check(-1, math.MinInt64, math.MaxInt64, 0, 1, 255, 256, 1<<56, 1<<56-1, -256)
	for i := 0; i < 8; i++ {
		check(0xff<<(8*i), 1<<(8*i), 0x0100<<(8*i)|1) // zero bytes below, between and above
	}
	for i := 0; i < 5000; i++ {
		vs := make([]int64, rng.Intn(11))
		for j := range vs {
			vs[j] = int64(rng.Uint64() >> uint(rng.Intn(64)))
			if rng.Bernoulli(0.2) {
				vs[j] = -vs[j]
			}
		}
		check(vs...)
	}
	if _, count := n.GrantDigest(); count != 4+8+5000 {
		t.Fatalf("digest count %d after %d folds", count, 4+8+5000)
	}
}

// TestGroupScratchIsCacheLineMultiple: adjacent groups' scratch, written by
// different pool workers, never shares a cache line — whatever fields
// groupState grows.
func TestGroupScratchIsCacheLineMultiple(t *testing.T) {
	if sz := unsafe.Sizeof(groupScratch{}); sz%64 != 0 || sz < unsafe.Sizeof(groupState{}) {
		t.Fatalf("groupScratch is %d bytes (groupState %d): not a whole number of 64-byte cache lines",
			sz, unsafe.Sizeof(groupState{}))
	}
}

// TestDrainedWithoutGenerator: a network nobody attached a source to is
// steppable (Step tolerates a nil generator) and therefore drained exactly
// when nothing it generated is outstanding.
func TestDrainedWithoutGenerator(t *testing.T) {
	n := mustNet(t, testConfig(OFAR))
	if !n.Drained() {
		t.Fatal("fresh network without a generator is not drained")
	}
	if at, ok := n.RunUntilDrained(10); !ok || at != 0 || n.Now() != 0 {
		t.Fatalf("RunUntilDrained stepped a drained network to cycle %d (drain cycle %d)", n.Now(), at)
	}
	n.Stats.Generated++ // an outstanding packet
	if n.Drained() {
		t.Fatal("network with an outstanding packet reports drained")
	}
}

// TestRunUntilDrainedOnDrainedBurst: a burst drains at or before the cycle
// its last window ran to; asked again, the drained network does not step and
// reports the cycle it stands at.
func TestRunUntilDrainedOnDrainedBurst(t *testing.T) {
	n := mustNet(t, testConfig(OFAR))
	n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 2, n.Topo.Nodes))
	if at, ok := n.RunUntilDrained(200000); !ok || at > n.Now() {
		t.Fatalf("drained=%v at cycle %d, network at %d", ok, at, n.Now())
	}
	now := n.Now()
	if at, ok := n.RunUntilDrained(200000); !ok || at != now || n.Now() != now {
		t.Fatalf("drained network: RunUntilDrained stepped from %d to %d (drain cycle %d)", now, n.Now(), at)
	}
}
