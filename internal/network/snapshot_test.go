package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// snapCfg is the small h=2 system the snapshot tests run on: 36 routers,
// 72 nodes, OFAR with a physical escape ring — every subsystem the snapshot
// must carry (rings, escape VCs, PB boards are exercised separately).
func snapCfg(workers int) Config {
	cfg := DefaultConfig(2)
	cfg.Seed = 7
	cfg.Workers = workers
	return cfg
}

func snapNet(t *testing.T, cfg Config, load float64) *Network {
	t.Helper()
	n := mustPoolNet(t, cfg) // the pool, if any, takes every non-empty phase
	n.EnableGrantDigest()
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
	return n
}

func snapshotBytes(t testing.TB, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectSameState asserts bit-for-bit equality of two networks: per-router
// state fingerprints, the grant digest, and the full canonical snapshot
// image (which covers stats, buffers, events, rings and generator state).
func expectSameState(t *testing.T, label string, a, b *Network) {
	t.Helper()
	for i := range a.Routers {
		if fa, fb := a.Routers[i].StateFingerprint(), b.Routers[i].StateFingerprint(); fa != fb {
			t.Fatalf("%s: router %d fingerprint %016x != %016x", label, i, fa, fb)
		}
	}
	da, ca := a.GrantDigest()
	db, cb := b.GrantDigest()
	if da != db || ca != cb {
		t.Fatalf("%s: grant digest %016x/%d != %016x/%d", label, da, ca, db, cb)
	}
	sa, sb := snapshotBytes(t, a), snapshotBytes(t, b)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("%s: canonical snapshot images differ (%d vs %d bytes)", label, len(sa), len(sb))
	}
}

// TestSnapshotDifferential is the restore-equality matrix: for each load ×
// worker count, running K cycles, snapshotting and running M more must be
// bit-identical to restoring that snapshot into a fresh network and running
// the same M cycles — per-router fingerprints, grant digests and statistics
// all included. (The subtest names end in "_sched" from when the matrix had a
// scheduler dimension; kept so test IDs stay stable.)
func TestSnapshotDifferential(t *testing.T) {
	const warm, measure = 300, 300
	loads := []float64{0.05, 0.6, 0.9}
	workerCounts := []int{1, 4}
	if testing.Short() {
		loads = []float64{0.6}
	}
	for _, load := range loads {
		for _, workers := range workerCounts {
			cfg := snapCfg(workers)
			name := fmt.Sprintf("load%.2f_w%d_sched", load, workers)
			t.Run(name, func(t *testing.T) {
				orig := snapNet(t, cfg, load)
				orig.Run(warm)
				snap := snapshotBytes(t, orig)
				orig.Run(measure)

				restored := snapNet(t, cfg, load)
				if err := restored.Restore(bytes.NewReader(snap)); err != nil {
					t.Fatal(err)
				}
				restored.Run(measure)
				expectSameState(t, name, orig, restored)
			})
		}
	}
}

// TestRestoreOverOtherPopulations restores an h=3 ADV+3 image taken at
// cycle 1,000 into three networks whose packet stores hold other
// populations: a fresh network, the source itself 600 cycles later (more
// packets than the image), and a network restored from that later image.
// Restore empties every group's store and refills it densely, so each must
// match a never-restored run at the image's cycle — router fingerprints,
// grant digest, re-snapshot bytes — and again 300 cycles on, at Workers 1
// and 2.
func TestRestoreOverOtherPopulations(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Workers = workers
			mk := func() *Network {
				n := mustPoolNet(t, cfg)
				n.EnableGrantDigest()
				n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 3), 0.5, cfg.PacketSize))
				return n
			}
			held := func(n *Network) int { return n.BufferedPackets() + n.InFlightPackets() + n.PendingPackets() }
			ref, src := mk(), mk()
			ref.Run(1000)
			src.Run(1000)
			img := snapshotBytes(t, src)
			src.Run(600)
			later := snapshotBytes(t, src)
			if held(src) <= held(ref) {
				t.Fatalf("the source holds %d packets 600 cycles on, the image %d: want more", held(src), held(ref))
			}
			fresh, relaid := mk(), mk()
			if err := relaid.Restore(bytes.NewReader(later)); err != nil {
				t.Fatal(err)
			}
			targets := []struct {
				name string
				n    *Network
			}{{"fresh", fresh}, {"source 600 cycles on", src}, {"restored from the later image", relaid}}
			for _, tg := range targets {
				if err := tg.n.Restore(bytes.NewReader(img)); err != nil {
					t.Fatalf("%s: %v", tg.name, err)
				}
				expectSameState(t, tg.name, ref, tg.n)
			}
			ref.Run(300)
			for _, tg := range targets {
				tg.n.Run(300)
				expectSameState(t, tg.name+", 300 cycles on", ref, tg.n)
			}
		})
	}
}

// TestSnapshotIsPure proves taking a snapshot perturbs nothing: a run that
// snapshots mid-flight ends bit-identical to one that never did.
func TestSnapshotIsPure(t *testing.T) {
	cfg := snapCfg(1)
	a := snapNet(t, cfg, 0.6)
	a.Run(200)
	_ = snapshotBytes(t, a) // side-effect-free by contract
	a.Run(200)

	b := snapNet(t, cfg, 0.6)
	b.Run(400)
	expectSameState(t, "pure", a, b)
}

// TestSnapshotCrossSetting restores a snapshot taken under one execution
// configuration (parallel, cache on) into networks built with
// different wall-clock settings: results must stay bit-identical, because
// those settings are normalized out of the snapshot's config identity.
func TestSnapshotCrossSetting(t *testing.T) {
	const warm, measure = 300, 300
	src := snapCfg(4)
	orig := snapNet(t, src, 0.6)
	orig.Run(warm)
	snap := snapshotBytes(t, orig)
	orig.Run(measure)

	variants := []Config{
		snapCfg(1), // serial
		func() Config {
			c := snapCfg(1)
			c.DisableRouteCache = true
			return c
		}(),
	}
	for i, cfg := range variants {
		restored := snapNet(t, cfg, 0.6)
		if err := restored.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		restored.Run(measure)
		expectSameState(t, "cross-setting", orig, restored)
	}
}

// TestSnapshotAcrossSharding: Workers and the ignored ShardByGroup field are
// normalized out of the snapshot's config identity, so a snapshot taken on a
// pooled network restores into a pool-less one (and vice versa)
// bit-identically, snapshot image included. snapNet forces the pool on every
// non-empty phase, so the pooled side genuinely dispatches even on a
// single-P host.
func TestSnapshotAcrossSharding(t *testing.T) {
	const warm, measure = 300, 300
	shardCfg := snapCfg(4)
	shardCfg.ShardByGroup = true
	serialCfg := snapCfg(1)

	for _, dir := range []struct {
		name     string
		src, dst Config
	}{
		{"shard_to_serial", shardCfg, serialCfg},
		{"serial_to_shard", serialCfg, shardCfg},
	} {
		t.Run(dir.name, func(t *testing.T) {
			orig := snapNet(t, dir.src, 0.6)
			orig.Run(warm)
			snap := snapshotBytes(t, orig)
			orig.Run(measure)

			restored := snapNet(t, dir.dst, 0.6)
			if err := restored.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			restored.Run(measure)
			expectSameState(t, dir.name, orig, restored)
		})
	}
}

// TestSnapshotWithFaults covers the hardest restore surface: a router fault
// before the snapshot point (ring splice surgery, dead masks, dropped
// packets) and another fault after it (the restored fault cursor must fire
// it on time).
func TestSnapshotWithFaults(t *testing.T) {
	cfg := snapCfg(1)
	cfg.Faults = []Fault{
		{Cycle: 100, Kind: FaultRouter, Router: 5},
		{Cycle: 450, Kind: FaultLink, Router: 11, Port: cfg.P},
	}
	orig := snapNet(t, cfg, 0.6)
	orig.Run(300)
	snap := snapshotBytes(t, orig)
	orig.Run(300)

	restored := snapNet(t, cfg, 0.6)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	restored.Run(300)
	expectSameState(t, "faults", orig, restored)
	if got := restored.DeadRouters(); got != 1 {
		t.Fatalf("restored network reports %d dead routers, want 1", got)
	}
	if orig.FaultsApplied() != restored.FaultsApplied() {
		t.Fatalf("fault cursors diverged: %d vs %d", orig.FaultsApplied(), restored.FaultsApplied())
	}
}

// TestSnapshotBurstGenerator proves stateful generator progress restores:
// a burst source's per-node budgets continue exactly where they stopped.
func TestSnapshotBurstGenerator(t *testing.T) {
	cfg := snapCfg(1)
	mkGen := func(n *Network) *traffic.Burst {
		return traffic.NewBurst(traffic.NewUniform(n.Topo), 4, n.Topo.Nodes)
	}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig.EnableGrantDigest()
	orig.SetGenerator(mkGen(orig))
	orig.Run(200)
	snap := snapshotBytes(t, orig)
	orig.Run(400)

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored.EnableGrantDigest()
	restored.SetGenerator(mkGen(restored))
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	restored.Run(400)
	expectSameState(t, "burst", orig, restored)
}

// TestForkIndependence forks one warm network twice, drives the forks with
// different loads, and proves (a) the parent is untouched, (b) each fork is
// bit-identical to a solo run restored from the same snapshot — i.e. the
// forks share no mutable state with the parent or each other. Runs under
// -race in CI with Workers > 1, which would catch any shared-slice aliasing
// as a data race too.
func TestForkIndependence(t *testing.T) {
	cfg := snapCfg(4)
	parent := snapNet(t, cfg, 0.6)
	parent.Run(300)
	parentBefore := snapshotBytes(t, parent)

	fork1, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fork1.Close)
	fork2, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fork2.Close)
	fork1.setCutover(1)
	fork2.setCutover(1)

	// Drive the forks with different loads.
	fork1.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(fork1.Topo), 0.1, cfg.PacketSize))
	fork2.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(fork2.Topo), 0.9, cfg.PacketSize))
	fork1.Run(300)
	fork2.Run(300)

	if !bytes.Equal(parentBefore, snapshotBytes(t, parent)) {
		t.Fatal("stepping forks mutated the parent network")
	}

	for i, tc := range []struct {
		fork *Network
		load float64
	}{{fork1, 0.1}, {fork2, 0.9}} {
		solo := snapNet(t, cfg, tc.load)
		if err := solo.Restore(bytes.NewReader(parentBefore)); err != nil {
			t.Fatal(err)
		}
		solo.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(solo.Topo), tc.load, cfg.PacketSize))
		solo.Run(300)
		expectSameState(t, fmt.Sprintf("fork%d", i+1), tc.fork, solo)
	}
}

// TestRestoreRejects exercises the refusal paths: wrong magic, wrong
// version, flipped payload bits, truncation, config mismatch and trailing
// garbage must all error out without panicking, through every one of
// imageReaders — decoded in place and read whole alike.
func TestRestoreRejects(t *testing.T) {
	cfg := snapCfg(1)
	orig := snapNet(t, cfg, 0.6)
	orig.Run(120)
	snap := snapshotBytes(t, orig)

	fresh := func() *Network { return snapNet(t, cfg, 0.6) }
	refuse := func(target func() *Network, label string, data []byte, want string) {
		t.Helper()
		for _, r := range imageReaders {
			if err := target().Restore(r.open(t, data)); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s through %s: got %v, want an error containing %q", label, r.name, err, want)
			}
		}
	}
	expectErr := func(label string, data []byte) {
		t.Helper()
		refuse(fresh, label, data, "")
	}

	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff
	expectErr("magic", bad)

	bad = append([]byte(nil), snap...)
	bad[8] ^= 0x01 // version word
	expectErr("version", bad)

	bad = append([]byte(nil), snap...)
	bad[len(bad)-1] ^= 0x40 // payload tail
	expectErr("payload bitflip", bad)

	expectErr("truncated", snap[:len(snap)/2])
	expectErr("empty", nil)
	expectErr("trailing garbage", append(append([]byte(nil), snap...), 0xEE))

	other := snapCfg(1)
	other.Seed = 99
	mis, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	mis.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(mis.Topo), 0.6, other.PacketSize))
	refuse(func() *Network { return mis }, "another seed", snap, "different configuration")

	// Checksum-valid images whose state does not fit the network: each used
	// to restore, and the next window panicked indexing past the state.
	expectErr("utilization narrower than the routers", hostileUtilization(t, snapNet(t, cfg, 0.6)))
	expectErr("output wired past the routers", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		n.Routers[4].Out[n.Topo.LocalPortBase()].Peer = 1 << 20
	}))
	expectErr("output wired past the peer's ports", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		n.Routers[4].Out[n.Topo.LocalPortBase()].PeerPort = int16(len(n.Routers[0].In))
	}))
	expectErr("input fed from past the routers", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		n.Routers[4].In[n.Topo.LocalPortBase()].UpRouter = -2
	}))
	expectErr("input fed from past the upstream's ports", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		n.Routers[4].In[n.Topo.LocalPortBase()].UpPort = 1 << 14
	}))
	// Two requesters on one rank would make the allocator favour the lower
	// index forever, a rank past the row starve the requester holding it.
	expectErr("output arbiter ranks repeated", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		_, out := n.Routers[4].ArbiterRanks(n.Topo.LocalPortBase())
		out[0] = out[1]
	}))
	expectErr("input arbiter rank past its row", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		in, _ := n.Routers[4].ArbiterRanks(n.Topo.LocalPortBase())
		in[0] = uint8(len(in))
	}))

	// A packet ID the pool never handed out, and one not above the record
	// before it (a zero ID delta).
	stray := snapNet(t, cfg, 0.6)
	stray.Run(120)
	var tab packet.Refs
	tab.Index(&stray.pkts, stray.forEachPacket)
	stray.pkts.At(tab.At(tab.Len() - 1)).ID = packet.ID(stray.pool.Outstanding() + 1)
	expectErr("packet ID never handed out", snapshotBytes(t, stray))
	p := stray.pkts.At(tab.At(0))
	var rec simcore.Enc
	stray.packetState(simcore.Encoder(&rec), p, p.ID)
	c := simcore.Decoder(simcore.NewDec(rec.Data()))
	if stray.packetState(c, new(packet.Packet), p.ID); c.Err() == nil {
		t.Fatal("a packet record with a zero ID delta decoded")
	}

	// Output credits are written in phits, the unit of the version-5 image:
	// a count that is not a whole number of packets is refused before it is
	// divided. Encoding router 4 as if its packets were S/2 phits writes its
	// ejection port's one credit as S/2, inside [0, S].
	refuse(fresh, "output credits not a multiple of S", hostileState(t, snapNet(t, cfg, 0.6), func(n *Network) {
		n.Routers[4].PktSize /= 2
	}), "4 phits of credit, not a multiple of the 8-phit packet")

	// Records whose derived or retired slots hold what no walk writes: a
	// packet size other than the network's (and one that wraps to it in 16
	// bits), a nonzero delivery stamp, a local-misroute or on-ring byte that
	// contradicts MisrouteGroup or Ring, a total-hop count other than the
	// sum of the three hop counters, a credit of other than PacketSize
	// phits, and an arrival or drain carrying phits. The same splice with
	// the value the walk writes restores.
	S := int64(cfg.PacketSize)
	for _, c := range []struct {
		name      string
		which     int
		good, bad int64
		want      string
	}{
		{"packet size other than S", packetSize, S, 2 * S, "packet size: snapshot has 16, target 8"},
		{"packet size past int16", packetSize, S, 1<<16 + S, "packet size: snapshot has 65544, target 8"},
		{"packet delivery stamp", packetDone, 0, 5, "delivery stamp: snapshot has 5"},
		{"local-misroute flag without a misroute group", packetLocalMis, 0, 1, "local-misroute flag true contradicts misroute group -1"},
		{"on-ring flag without a ring", packetRingFlag, 0, 1, "on-ring flag true contradicts ring -1"},
		{"total hops other than the counters' sum", packetHops, 1, 2, "total hops 2, not the 1 its counters sum to"},
		{"credit phits", creditPhits, S, S - 1, "event phits: snapshot has 7, target 8"},
		{"arrival or drain phits", otherPhits, 0, S, "event phits: snapshot has 8, target 0"},
	} {
		if err := fresh().Restore(bytes.NewReader(hostileRecord(t, snapNet(t, cfg, 0.6), c.which, c.good, c.good))); err != nil {
			t.Errorf("%s: the walk's own value refused: %v", c.name, err)
		}
		refuse(fresh, c.name, hostileRecord(t, snapNet(t, cfg, 0.6), c.which, c.good, c.bad), c.want)
	}

	// The grant-log slots behind the digest are zeros: an image that puts a
	// cap or events there — what a test log once wrote — is refused.
	refuse(fresh, "grant log cap", hostileLogFields(t, snapNet(t, cfg, 0.6), 64, 0), "grant log cap: snapshot has 64, target 0")
	refuse(fresh, "grant log events", hostileLogFields(t, snapNet(t, cfg, 0.6), 0, 1), "grant log events: snapshot has 1, target 0")

	// An image written while Config still had ParallelCutover and
	// DisableShardedGenerate carries both (always zero) in its header: it is
	// refused as a configuration mismatch like any foreign header, and the
	// caller re-warms — absence, never staleness.
	d := simcore.NewDec(snap)
	var old simcore.Enc
	old.Raw(d.Raw(len(snapMagic) + 16)) // magic, version, engine digest
	hdr := d.Bytes(maxSnapCfgJSON)
	old.Bytes(append(hdr[:len(hdr)-1:len(hdr)-1], `,"ParallelCutover":0,"DisableShardedGenerate":false}`...))
	old.Raw(d.Raw(d.Remaining()))
	refuse(fresh, "image with pre-removal config keys", old.Data(), "different configuration")
}

// hostileUtilization returns an image of n, run 120 cycles, whose
// utilization section is sized for one router with one port.
func hostileUtilization(t testing.TB, n *Network) []byte {
	n.Run(120)
	n.Stats.EnableUtilization(1, 1)
	return snapshotBytes(t, n)
}

// hostileState returns an image of n, run 120 cycles, after corrupt has
// put state in it that no run reaches: a link wired somewhere the network
// does not have, an arbiter row that is not a permutation.
func hostileState(t testing.TB, n *Network, corrupt func(*Network)) []byte {
	n.Run(120)
	corrupt(n)
	return snapshotBytes(t, n)
}

// hostileLogFields returns an image of n, run 120 cycles, with the grant-log
// cap and event count, the two zeros behind the digest, set to size and
// events, behind a valid header and checksum.
func hostileLogFields(t testing.TB, n *Network, size, events int64) []byte {
	t.Helper()
	n.Run(120)
	img := n.encode()
	var at simcore.Enc
	at.U64(n.digest.sum)
	at.Varint(n.digest.count)
	at.Varint(0)
	at.Varint(0)
	i := bytes.Index(img, at.Data())
	if i < 0 {
		t.Fatal("no zero grant-log fields behind the digest")
	}
	end := i + len(at.Data())
	var bad simcore.Enc
	bad.Raw(img[:end-2])
	bad.Varint(size)
	bad.Varint(events)
	bad.Raw(img[end:])
	return snapImage(t, n, bad.Data())
}

// The records hostileRecord rewrites, and the slot it sets in each.
const (
	packetSize     = iota // a packet's size slot
	packetDone            // a packet's retired delivery-stamp slot
	packetLocalMis        // a packet's local-misroute byte
	packetRingFlag        // a packet's on-ring byte
	packetHops            // a packet's total-hop count
	creditPhits           // a credit event's phits slot
	otherPhits            // an arrival's or drain's phits slot
)

// hostileRecord returns an image of n, run 120 cycles, in which the first
// record of the given kind whose bytes occur once in the payload and whose
// slot holds good has that slot set to v, behind a valid header and
// checksum.
func hostileRecord(t testing.TB, n *Network, which int, good, v int64) []byte {
	t.Helper()
	n.Run(120)
	img := n.encode()
	var tab packet.Refs
	tab.Index(&n.pkts, n.forEachPacket)
	var recs [][]byte
	if which < creditPhits {
		prev := packet.ID(0)
		for i := range tab.Len() {
			p := n.pkts.At(tab.At(i))
			var e simcore.Enc
			n.packetState(simcore.Encoder(&e), p, prev)
			recs, prev = append(recs, e.Data()), p.ID
		}
	} else {
		n.wheel.ForEachDelay(func(delay int, ev event) {
			if (ev.kind == evCredit) == (which == creditPhits) {
				var e simcore.Enc
				n.eventState(simcore.Encoder(&e), &delay, &ev, &tab)
				recs = append(recs, e.Data())
			}
		})
	}
	flag := which == packetLocalMis || which == packetRingFlag
	for _, rec := range recs {
		if bytes.Count(img, rec) != 1 {
			continue
		}
		// A packet record opens with seven varints (the ID delta, the size,
		// Dst, SrcGroup, DstGroup, ValiantGroup, BlockedSince) and three
		// flag bytes; an event with the delay, the kind byte, the router,
		// the port and the VC.
		var at int
		switch flags := varintsEnd(rec, 0, 7); which {
		case packetSize:
			at = varintsEnd(rec, 0, 1)
		case packetDone:
			at = len(rec) - 1
		case packetLocalMis:
			at = flags + 1
		case packetRingFlag:
			at = flags + 2
		case packetHops: // after Ring, LocalHops, GlobalHops, Src, MisrouteGroup
			at = varintsEnd(rec, flags+3, 5)
		default:
			at = varintsEnd(rec, varintsEnd(rec, 0, 1)+1, 3)
		}
		slot, w := binary.Varint(rec[at:])
		if flag {
			slot, w = int64(rec[at]), 1
		}
		if slot != good {
			continue
		}
		var bad simcore.Enc
		i := bytes.Index(img, rec)
		bad.Raw(img[:i+at])
		if flag {
			bad.U8(uint8(v))
		} else {
			bad.Varint(v)
		}
		bad.Raw(img[i+at+w:])
		return snapImage(t, n, bad.Data())
	}
	t.Fatalf("no record of kind %d with slot %d occurs once in the payload", which, good)
	return nil
}

// varintsEnd returns the offset in rec after the k varints from offset at.
func varintsEnd(rec []byte, at, k int) int {
	for range k {
		_, w := binary.Uvarint(rec[at:])
		at += w
	}
	return at
}

// pinnedSections is one warm h=2 network for every section a snapshot can
// carry, with the FNV of its image recorded from an earlier build. Each run
// also checks that the state it is there for is really in the image.
var pinnedSections = []struct {
	name string
	want uint64
	run  func(t *testing.T) *Network
}{
	{"OFAR", 0x49fed25ecfbef450, func(t *testing.T) *Network {
		n := snapNet(t, snapCfg(1).WithRouting(OFAR), 0.6)
		n.Run(400)
		return n
	}},
	{"PB", 0x3cd86c69360fbb69, func(t *testing.T) *Network {
		n := snapNet(t, snapCfg(1).WithRouting(PB), 0.6)
		n.Run(400)
		return n
	}},
	// Liveness masks, a physical ring spliced around the dead router,
	// dropped packets and an affected-flow set.
	{"router-fault", 0x7b580286b6a5ff1d, func(t *testing.T) *Network {
		cfg := snapCfg(1)
		cfg.Faults = []Fault{{Cycle: 100, Kind: FaultRouter, Router: 5}}
		n := snapNet(t, cfg, 0.6)
		n.Run(400)
		if n.DeadRouters() != 1 || n.Stats.Dropped == 0 || n.Stats.AffectedFlows() == 0 {
			t.Fatalf("dead routers %d, dropped %d, affected flows %d", n.DeadRouters(), n.Stats.Dropped, n.Stats.AffectedFlows())
		}
		return n
	}},
	{"embedded-2-rings", 0x7236f354fac9dda9, func(t *testing.T) *Network {
		cfg := snapCfg(1)
		cfg.Ring, cfg.NumRings = RingEmbedded, 2
		n := snapNet(t, cfg, 0.6)
		n.Run(400)
		if len(n.Rings) != 2 {
			t.Fatalf("%d rings", len(n.Rings))
		}
		return n
	}},
	// Per-slot emitted counters and per-job statistics.
	{"jobset", 0xebf4b54077a3ce38, func(t *testing.T) *Network {
		n := mustNet(t, snapCfg(1))
		js, err := traffic.NewJobSet(n.Topo, traffic.JobSetConfig{
			Jobs: []traffic.JobSpec{
				{Kind: traffic.JobStencil, Nodes: 8, Load: 0.4, Dims: [3]int{2, 2, 2}},
				{Kind: traffic.JobAll2All, Nodes: 24, Load: 0.5},
			},
			Background: 0.2, Seed: 3, PacketSize: n.Cfg.PacketSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(js)
		n.Run(200)
		n.Stats.StartMeasurement(n.Now())
		n.Run(200)
		if n.Stats.Jobs() == 0 || js.Emitted(0) == 0 {
			t.Fatalf("%d job slots, job 0 emitted %d", n.Stats.Jobs(), js.Emitted(0))
		}
		return n
	}},
	// Every budget spent, packets still in the network.
	{"burst-mid-drain", 0x58f3e835b60bcf16, func(t *testing.T) *Network {
		n := mustNet(t, snapCfg(1))
		b := traffic.NewBurst(traffic.NewAdv(n.Topo, 1), 6, n.Topo.Nodes)
		n.SetGenerator(b)
		n.Run(150)
		if !b.Done() || n.Drained() {
			t.Fatalf("burst done %v, network drained %v: not mid-drain", b.Done(), n.Drained())
		}
		return n
	}},
	// Per-node replay cursors, part of the trace still to come.
	{"trace-replay", 0xff75271a8de8e6ac, func(t *testing.T) *Network {
		rec := &trace.Recorder{}
		src := snapNet(t, snapCfg(1), 0.6)
		src.SetTraceRecorder(rec)
		src.Run(300)
		n := mustNet(t, snapCfg(1))
		gen, err := traffic.NewTraceReplay(rec.Records(), n.Topo.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(gen)
		n.Run(150)
		if gen.Done() {
			t.Fatal("replay finished before the snapshot")
		}
		return n
	}},
	// Grant digest, series, histogram and utilization, inside a measurement
	// window.
	{"observers", 0xbe4e290bed9ca1c3, func(t *testing.T) *Network {
		n := snapNet(t, snapCfg(1), 0.6)
		n.EnableGrantDigest()
		n.Stats.EnableSeries(50)
		n.Stats.EnableHistogram()
		n.Stats.EnableUtilization(len(n.Routers), len(n.Routers[0].Out))
		n.Run(200)
		n.Stats.StartMeasurement(n.Now())
		n.Run(200)
		if n.digest.count == 0 || n.Stats.Histogram().Count() == 0 || n.Stats.Utilization(0, n.Topo.P) == 0 {
			t.Fatal("an observer recorded nothing")
		}
		return n
	}},
}

// TestSnapshotBytesPinned holds the image format still: the FNV of a warm
// h=2 snapshot equals a literal recorded from an earlier build, for every
// section a snapshot can carry. Every literal was recorded at format version
// 5 (varint fields, packet IDs as deltas, packet references as table
// positions, arbiters as byte ranks).
func TestSnapshotBytesPinned(t *testing.T) {
	for _, c := range pinnedSections {
		t.Run(c.name, func(t *testing.T) {
			if got := simcore.Checksum64(snapshotBytes(t, c.run(t))); got != c.want {
				t.Errorf("snapshot FNV %#016x, pinned %#016x", got, c.want)
			}
		})
	}
}

// imageReaders are the readers Restore must treat alike: a bytes.Reader and
// a bytes.Buffer hand their bytes over in place, a OneByteReader and a file
// (whose WriteTo would write in chunks) are read whole first.
var imageReaders = []struct {
	name string
	open func(t *testing.T, img []byte) io.Reader
}{
	{"bytes.Reader", func(_ *testing.T, img []byte) io.Reader { return bytes.NewReader(img) }},
	{"bytes.Buffer", func(_ *testing.T, img []byte) io.Reader { return bytes.NewBuffer(img) }},
	{"OneByteReader", func(_ *testing.T, img []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(img)) }},
	{"os.File", func(t *testing.T, img []byte) io.Reader {
		path := filepath.Join(t.TempDir(), "warm.ofarsnap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}},
}

// TestRestoreReaders restores every pinned section's image through each of
// imageReaders into a network that ran on past it. Each restore must land on
// the source's state — router fingerprints, grant digest, and a re-snapshot
// equal to the image — and still re-snapshot to the image after the bytes it
// was read from are overwritten: nothing restored aliases them.
func TestRestoreReaders(t *testing.T) {
	for _, c := range pinnedSections {
		t.Run(c.name, func(t *testing.T) {
			src := c.run(t)
			img := snapshotBytes(t, src)
			for _, r := range imageReaders {
				dst := c.run(t)
				dst.Run(50)
				held := append([]byte(nil), img...)
				if err := dst.Restore(r.open(t, held)); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				expectSameState(t, r.name, src, dst)
				for i := range held {
					held[i] = ^held[i]
				}
				if got := snapshotBytes(t, dst); !bytes.Equal(got, img) {
					t.Fatalf("%s: the image changed when its source bytes were overwritten", r.name)
				}
			}
		})
	}
}
