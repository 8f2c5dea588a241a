package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/traffic"
)

// TestArenaExactFit pins the sizing pass to what construction consumes: over
// every radix × ring layout × routing family Validate accepts, each group
// arena ends New with nothing left over (slack) and nothing served by plain
// make (spill) — router.ArenaSize.Add and NewInto/EnableRouteCache agree to
// the element.
func TestArenaExactFit(t *testing.T) {
	hs := []int{2, 3, 6}
	if testing.Short() {
		hs = hs[:2]
	}
	rings := []struct {
		name string
		mode RingMode
		n    int
	}{{"none", RingNone, 0}, {"physical1", RingPhysical, 1}, {"physical2", RingPhysical, 2}, {"embedded", RingEmbedded, 1}}
	for _, h := range hs {
		for _, rg := range rings {
			for _, rt := range []Routing{MIN, PB, PAR, OFAR} {
				cfg := DefaultConfig(h).WithRouting(rt)
				cfg.Ring, cfg.NumRings = rg.mode, rg.n
				if cfg.Validate() != nil {
					continue // OFAR needs its ring
				}
				n := mustNet(t, cfg)
				for g, a := range n.arenas {
					if a.Slack != 0 || a.Spill != 0 {
						t.Errorf("h=%d ring=%s %s group %d: slack %d spill %d, want 0 0",
							h, rg.name, rt, g, a.Slack, a.Spill)
						break
					}
				}
				n.Close()
			}
		}
	}
}

// memDelta runs f and returns, in MB, the live heap it left behind and
// everything it allocated on the way.
func memDelta(f func()) (live, allocated float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	allocated = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20), allocated
}

// allocBytes returns the bytes one call of f allocates, averaged over runs
// calls after a warm-up call, as testing.AllocsPerRun counts allocations.
func allocBytes(runs int, f func()) float64 {
	f()
	_, mb := memDelta(func() {
		for range runs {
			f()
		}
	})
	return mb * (1 << 20) / float64(runs)
}

// imageIOBytes returns, in KB, what one Snapshot of n into a bytes.Buffer
// that already has room for it allocates, and what one repeat Restore of
// snap into n allocates.
func imageIOBytes(t testing.TB, n *Network, snap []byte) (snapKB, restoreKB float64) {
	t.Helper()
	roomy := bytes.NewBuffer(make([]byte, 0, 2*len(snap)))
	snapKB = allocBytes(3, func() {
		roomy.Reset()
		if err := n.Snapshot(roomy); err != nil {
			t.Fatal(err)
		}
	}) / 1024
	restoreKB = allocBytes(3, func() {
		if err := n.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	}) / 1024
	return snapKB, restoreKB
}

// arenaBytes is the memory the slabs of a network's group arenas occupy,
// by part (see router.ArenaSize.Bytes): queue slots, VC buffers, arbiter
// ranks, ports, request slots and scratch, then the total.
func arenaBytes(n *Network) (parts [6]int, total int) {
	for _, a := range n.arenas {
		q, vcs, arb, ports, reqs, scratch := a.Size.Bytes()
		for k, b := range [6]int{q, vcs, arb, ports, reqs, scratch} {
			parts[k] += b
			total += b
		}
	}
	return parts, total
}

// TestConstructFootprint bounds what a constructed network holds — its
// arenas' state at h=3 within 0.8 MB and at h=6 within 12.5 MB (21.3 with
// 8-byte arbiter timestamps and word-wide counters), the heap after New at
// h=3 within 1.1 MB and at h=6 within 15 MB (23.4) — and its warm snapshot (UN
// at load 0.3, cycle 1,000): a third of what the image took with every
// integer 8 bytes wide, 0.7 MB at h=3 and 13.4 MB at h=6. The warm column is
// the live heap of a network run 1,000 cycles of ADV+h at load 0.5, where
// packets and wheel events outweigh the arenas; it is bounded within 2.8 MB
// at h=3 and 35 MB at h=6 (3.35 and 40.3 with 8-byte packet pointers in
// queues, events, logs and free lists; 5.2 and 58.2 with 152-byte packets
// and 24-byte events). The 1st snap and 1st restore columns are what one
// Snapshot of that warm network into an empty bytes.Buffer and the first
// Restore of its image allocate; at h=6 they are bounded within 8.5 MB and
// 2.5 MB (9.7 and 6.6 with a 16-byte (ID, pointer) packet table and a
// Restore that recycled the outgoing packets). The snap and restore columns
// are the bytes one Snapshot of the UN network into a bytes.Buffer with room
// allocates and one repeat Restore of its image allocates; at h=3 they are
// bounded within 40 KB and 16 KB (283 and 144 when Restore copied the image
// and Snapshot encoded the payload apart). It prints the footprint table
// docs/ARCHITECTURE.md quotes (`make footprint`): the arenas' state, total
// and per slab, the heap after New, the warm snapshot, the warm heap and the
// snapshot I/O.
func TestConstructFootprint(t *testing.T) {
	stateBound := map[int]float64{3: 0.8, 6: 12.5}
	bound := map[int]float64{3: 1.1, 6: 15}
	snapBound := map[int]float64{3: 0.7 / 3, 6: 13.4 / 3}
	warmBound := map[int]float64{3: 2.8, 6: 35}
	firstSnapBound, firstRestoreBound := map[int]float64{6: 8.5}, map[int]float64{6: 2.5}
	snapIOBound, restoreIOBound := map[int]float64{3: 40}, map[int]float64{3: 16}
	hs := []int{2, 3, 6, 8}
	if testing.Short() {
		hs = hs[:2]
	}
	const mb = 1 << 20
	t.Logf("%2s %8s %9s %7s %7s %7s %7s %7s %7s %8s %12s %8s %12s %15s %8s %10s", "h", "routers", "state MB",
		"queues", "VCs", "arbiter", "ports", "reqs", "scratch", "heap MB", "snapshot MB", "warm MB",
		"1st snap MB", "1st restore MB", "snap KB", "restore KB")
	for _, h := range hs {
		cfg := DefaultConfig(h)
		if h == 8 {
			cfg.A = 16 // the stretch build (TestH8ShardedSmoke)
		}
		var n *Network
		heap, _ := memDelta(func() { n = mustNet(t, cfg) })
		parts, total := arenaBytes(n)
		state := float64(total) / mb
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
		n.Run(1000)
		snap := snapshotBytes(t, n)
		snapMB := float64(len(snap)) / mb
		snapKB, restoreKB := imageIOBytes(t, n, snap)
		n.Close()
		warm, firstSnap, firstRestore, warmCols := 0.0, 0.0, 0.0, [3]string{"-", "-", "-"}
		if h == 3 || h == 6 {
			warm, _ = memDelta(func() {
				n = mustNet(t, cfg)
				n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, h), 0.5, cfg.PacketSize))
				n.Run(1000)
			})
			var img bytes.Buffer
			_, firstSnap = memDelta(func() { n.Snapshot(&img) })
			_, firstRestore = memDelta(func() {
				if err := n.Restore(bytes.NewReader(img.Bytes())); err != nil {
					t.Fatal(err)
				}
			})
			warmCols = [3]string{fmt.Sprintf("%.2f", warm), fmt.Sprintf("%.2f", firstSnap), fmt.Sprintf("%.2f", firstRestore)}
		}
		t.Logf("%2d %8d %9.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %8.1f %12.2f %8s %12s %15s %8.1f %10.1f", h, len(n.Routers), state,
			float64(parts[0])/mb, float64(parts[1])/mb, float64(parts[2])/mb, float64(parts[3])/mb,
			float64(parts[4])/mb, float64(parts[5])/mb, heap, snapMB, warmCols[0], warmCols[1], warmCols[2], snapKB, restoreKB)
		if max, ok := stateBound[h]; ok && state > max {
			t.Errorf("h=%d: the arenas take %.1f MB, want ≤ %.1f", h, state, max)
		}
		if max, ok := bound[h]; ok && heap > max {
			t.Errorf("h=%d: New holds %.1f MB, want ≤ %.1f", h, heap, max)
		}
		if max, ok := snapBound[h]; ok && snapMB > max {
			t.Errorf("h=%d: the warm snapshot takes %.2f MB, want ≤ %.2f", h, snapMB, max)
		}
		if max, ok := warmBound[h]; ok && warm > max {
			t.Errorf("h=%d: a warm ADV+%d network holds %.1f MB, want ≤ %.1f", h, h, warm, max)
		}
		if max, ok := firstSnapBound[h]; ok && firstSnap > max {
			t.Errorf("h=%d: the first Snapshot of the warm ADV+%d network allocates %.2f MB, want ≤ %.1f", h, h, firstSnap, max)
		}
		if max, ok := firstRestoreBound[h]; ok && firstRestore > max {
			t.Errorf("h=%d: the first Restore of the warm ADV+%d image allocates %.2f MB, want ≤ %.1f", h, h, firstRestore, max)
		}
		if max, ok := snapIOBound[h]; ok && snapKB > max {
			t.Errorf("h=%d: a Snapshot into a buffer with room allocates %.1f KB, want ≤ %.0f", h, snapKB, max)
		}
		if max, ok := restoreIOBound[h]; ok && restoreKB > max {
			t.Errorf("h=%d: a repeat Restore allocates %.1f KB, want ≤ %.0f", h, restoreKB, max)
		}
		n.Close()
	}
}

// TestEventSizes pins the records the wheel, the window rings and the
// outboxes hold one of per packet in flight and per credit owed: an event
// is 12 bytes and an outbox entry 16, so a new field cannot grow them back;
// and the GrantEvent an observer receives per grant, 40.
// It also pins every record that names a packet — events, outbox entries,
// the effect log, VC queue slots, source queues and pool free lists — as
// pointer-free: they hold packet handles, so the collector never scans
// them, and a *packet.Packet field put back into one fails here.
func TestEventSizes(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 12 {
		t.Errorf("event takes %d bytes, want 12", size)
	}
	if size := unsafe.Sizeof(schedEv{}); size != 16 {
		t.Errorf("schedEv takes %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(GrantEvent{}); size != 40 {
		t.Errorf("GrantEvent takes %d bytes, want 40", size)
	}
	field := func(v any, name string) reflect.Type {
		f, ok := reflect.TypeOf(v).FieldByName(name)
		if !ok {
			t.Fatalf("%T has no field %s", v, name)
		}
		return f.Type.Elem()
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(event{}), reflect.TypeOf(schedEv{}), reflect.TypeOf(fxRec{}),
		field(router.VCBuffer{}, "q"), field(pqueue{}, "q"), field(packet.Pool{}, "free"),
	} {
		if holdsPointer(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// TestNewBoundsPacketHandles: New refuses a configuration whose packets one
// group could hold at once are more than 32-bit handles address. On two
// one-router groups (one node each) a group holds at worst every queue slot
// of the network, its node's PendingCap source packets and a wheel horizon
// of deliveries at both nodes, and reserves a horizon of generation; the
// store's 2^24−1 directory entries of 256 packets give each of the two
// groups 8,388,606 blocks beyond the one spare, so PendingCap may reach the
// packet count that leaves exactly that many and not one more.
func TestNewBoundsPacketHandles(t *testing.T) {
	cfg := DefaultConfig(1).WithRouting(MIN)
	cfg.A = 1
	probe := mustNet(t, cfg)
	slots := 0
	for _, a := range probe.arenas {
		slots += a.Size.PacketSlots
	}
	horizon := probe.wheel.Horizon()
	fixed := slots + probe.Topo.Nodes*(horizon/cfg.PacketSize+1) + horizon
	if probe.Topo.G != 2 || probe.groupNodes != 1 {
		t.Fatalf("%d groups of %d nodes, want 2 of 1", probe.Topo.G, probe.groupNodes)
	}
	limit := ((packet.MaxBlocks/2)-1)*packet.BlockSize - fixed
	for _, c := range []struct {
		pending int
		ok      bool
	}{{limit - 1, true}, {limit, true}, {limit + 1, false}} {
		cfg.PendingCap = c.pending
		n, err := New(cfg)
		if (err == nil) != c.ok {
			t.Errorf("PendingCap %d (limit %d): error %v, want ok=%v", c.pending, limit, err, c.ok)
		}
		if n != nil {
			n.Close()
		}
	}
}

// holdsPointer reports whether a value of typ contains a pointer the garbage
// collector would scan.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestVCQueuesStayOnArena drives ADV+3 at load 1.0 on h=3 for 3,000 cycles —
// local VCs that never fully empty — and requires every VC queue to still be
// the ring NewInto carved: a queue that outgrew it would have moved to the
// heap with a different size (1,836 of 3,762 did before the queues were rings).
func TestVCQueuesStayOnArena(t *testing.T) {
	cfg := DefaultConfig(3)
	n := mustNet(t, cfg)
	defer n.Close()
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 3), 1.0, cfg.PacketSize))
	n.Run(3000)
	total, off := 0, 0
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				b := &r.In[i].VCs[vc]
				total++
				if b.QueueSlots() != int(b.Capacity)+1 {
					off++
				}
			}
		}
	}
	if off != 0 {
		t.Fatalf("%d of %d VC queues left the arena", off, total)
	}
	for g, a := range n.arenas {
		if a.Spill != 0 {
			t.Fatalf("group %d arena spilled %d elements while running", g, a.Spill)
		}
	}
}

// TestRestoreAllocs pins the restore path's allocation count — a handful
// of small slices; 2,277 when every packet was its own object behind a map —
// and its bytes: a repeat restore of the 121.5 KB image decodes where the
// bytes lie into the network's own packet table and allocates ≤ 16 KB (it
// takes 3; 144 KB when Restore copied the image first and made a table per
// call). A Snapshot into a bytes.Buffer that already has room allocates no
// image-sized buffer, at most half the image (38 KB, the packet table; 283
// KB when the payload was encoded apart and written behind the header). It
// also checks that restoring twice into one network (the reused wheel and
// packet table, the re-initialised rings) lands exactly where a fresh
// restore does, now and 200 cycles on.
func TestRestoreAllocs(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Seed = 7
	build := func() *Network {
		n := mustNet(t, cfg)
		n.EnableGrantDigest()
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
		return n
	}
	src := build()
	src.Run(500)
	snap := snapshotBytes(t, src)
	src.Close()

	restore := func(n *Network) {
		if err := n.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	}
	twice, fresh := build(), build()
	defer twice.Close()
	defer fresh.Close()
	restore(twice)
	twice.Run(137) // leave the first restore's state well behind
	if allocs := testing.AllocsPerRun(5, func() { restore(twice) }); allocs > 100 {
		t.Errorf("Restore of a warm h=3 image: %.0f allocs, want ≤ 100", allocs)
	}
	snapKB, restoreKB := imageIOBytes(t, twice, snap)
	if restoreKB > 16 {
		t.Errorf("Restore of a warm h=3 image: %.1f KB allocated, want ≤ 16", restoreKB)
	}
	if img := float64(len(snap)) / 1024; snapKB > img/2 {
		t.Errorf("Snapshot into a bytes.Buffer with room: %.1f KB allocated for a %.1f KB image, want ≤ half of it", snapKB, img)
	}
	restore(fresh)
	expectSameState(t, "second restore", twice, fresh)
	twice.Run(200)
	fresh.Run(200)
	expectSameState(t, "200 cycles after a second restore", twice, fresh)
}

// TestRestoreBoundsPacketBlock: the packet block is sized by the bytes
// actually present, not by the count field in front of them. An image with a
// valid header and checksum whose payload claims 2^20 packets in 100 bytes is
// rejected before anything near 2^20 packets is allocated, and so is one
// whose count fits the bytes left but not that many of the smallest packet
// record.
func TestRestoreBoundsPacketBlock(t *testing.T) {
	n := snapNet(t, snapCfg(1), 0.6)
	img := hostilePacketCount(t, n, 1<<20, 100)
	var err error
	_, allocated := memDelta(func() { err = n.Restore(bytes.NewReader(img)) })
	if err == nil {
		t.Fatal("Restore accepted an image whose packet table is longer than its payload")
	}
	if allocated > 1 {
		t.Fatalf("rejecting the image allocated %.1f MB, want < 1", allocated)
	}
	const pad = 4096
	err = n.Restore(bytes.NewReader(hostilePacketCount(t, n, pad/snapPacketMin+1, pad)))
	if err == nil || !strings.Contains(err.Error(), "truncated input") {
		t.Fatalf("%d packets in %d bytes: %v, want the truncated-input error", pad/snapPacketMin+1, pad, err)
	}
}

// hostilePacketCount returns an image for n's configuration that passes
// every header check and carries the real payload of a cold network up to the
// packet table, then a count of packets and pad zero bytes past it.
func hostilePacketCount(t testing.TB, n *Network, count int64, pad int) []byte {
	t.Helper()
	var marker simcore.Enc
	cold := n.encode()
	// A cold network has no packets: find its empty table by what surrounds
	// the zero count — the pending-queue section (a queue count, a one-byte
	// zero length per queue) and the ring count behind it.
	marker.Varint(0)
	marker.Varint(int64(len(n.pending)))
	marker.Raw(make([]byte, len(n.pending)))
	marker.Varint(int64(len(n.Rings)))
	table := bytes.Index(cold, marker.Data())
	if table < 0 {
		t.Fatal("packet table not found in a cold payload")
	}
	var payload simcore.Enc
	payload.Raw(cold[:table])
	payload.Varint(count)
	payload.Raw(make([]byte, pad))
	return snapImage(t, n, payload.Data())
}

// snapImage wraps payload in the header and checksum an image of n's
// configuration carries, so Restore reads it as far as the payload allows.
func snapImage(t testing.TB, n *Network, payload []byte) []byte {
	t.Helper()
	cfgJSON, err := SnapshotConfigJSON(n.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img simcore.Enc
	img.Raw([]byte(snapMagic))
	img.U64(SnapshotVersion)
	img.U64(EngineDigest())
	img.Bytes(cfgJSON)
	img.U64(simcore.Checksum64(payload))
	img.Bytes(payload)
	return img.Data()
}

// TestSnapPacketBytes bounds what the packet walk writes: the smallest
// record — a zero-valued packet one ID past the record before it — is the
// snapPacketMin Restore divides by, and every packet of a warm network takes
// between that and the widest record, 19 ten-byte varints and 3 flag bytes.
func TestSnapPacketBytes(t *testing.T) {
	n := snapNet(t, snapCfg(1), 0.6)
	var e simcore.Enc
	n.packetState(simcore.Encoder(&e), &packet.Packet{ID: 1}, 0)
	if len(e.Data()) != snapPacketMin {
		t.Fatalf("the smallest packet record takes %d bytes, snapPacketMin = %d", len(e.Data()), snapPacketMin)
	}
	n.Run(300)
	const widest = 19*binary.MaxVarintLen64 + 3
	var tab packet.Refs
	tab.Index(&n.pkts, n.forEachPacket)
	if tab.Len() == 0 {
		t.Fatal("no packets in flight")
	}
	prev := packet.ID(0)
	for i := range tab.Len() {
		p := n.pkts.At(tab.At(i))
		var e simcore.Enc
		n.packetState(simcore.Encoder(&e), p, prev)
		if l := len(e.Data()); l < snapPacketMin || l > widest {
			t.Fatalf("packet %d's record takes %d bytes, outside [%d,%d]", p.ID, l, snapPacketMin, widest)
		}
		prev = p.ID
	}
}
