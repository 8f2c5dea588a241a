package packet

import (
	"testing"
	"testing/quick"
	"unsafe"

	"ofar/internal/simcore"
)

func TestPoolReusesAndResets(t *testing.T) {
	var pool Pool
	p := pool.Get()
	id1 := p.ID
	p.Src, p.Dst = 5, 9
	p.GlobalMisrouted = true
	p.MisrouteGroup = 4
	p.Ring = 2
	pool.Put(p)
	q := pool.Get()
	if q != p {
		t.Error("pool did not reuse the freed packet")
	}
	if q.ID == id1 {
		t.Error("reused packet kept its old ID")
	}
	if q.GlobalMisrouted || q.Ring != -1 || q.Src != 0 {
		t.Error("reused packet not reset")
	}
	if q.ValiantGroup != -1 || q.MisrouteGroup != -1 || q.BlockedSince != -1 {
		t.Error("sentinel fields not initialized")
	}
}

func TestPoolPutNil(t *testing.T) {
	var pool Pool
	pool.Put(nil) // must not panic
	if pool.Outstanding() != 0 {
		t.Error("outstanding count moved")
	}
}

// TestPoolCarveBlocks pins the carve sequence of a zero Pool — blocks of
// BlockSize packets, every slot of a block handed out in order before the
// next block is carved, Alloc and Get drawing on the same blocks — and what
// Reserve and Reset do to it: Reserve adds directory entries only for what
// the free list, the uncarved slots and earlier entries cannot cover, and
// after Reset the pool refills its own blocks from the first slot.
func TestPoolCarveBlocks(t *testing.T) {
	var pool Pool
	for i := range 3 * BlockSize {
		var h Handle
		if i%2 == 1 {
			p := pool.Get()
			h = Handle(len(pool.own)-1)<<BlockBits | Handle(i%BlockSize)
			if pool.Store().At(h) != p {
				t.Fatalf("Get %d is not slot %d of block %d", i, i%BlockSize, len(pool.own)-1)
			}
		} else if h = pool.Alloc(); h != Handle(i) {
			t.Fatalf("Alloc %d returned handle %d", i, h)
		}
	}
	if got, want := len(pool.Store().blocks), 3; got != want || pool.Outstanding() != 3*BlockSize/2 {
		t.Fatalf("%d blocks, %d IDs; want %d blocks, %d IDs (Get only)", got, pool.Outstanding(), want, 3*BlockSize/2)
	}
	pool.Free(5)
	pool.Reserve(1 + BlockSize/2)
	if len(pool.Store().blocks) != 4 || len(pool.spare) != 1 {
		t.Fatalf("Reserve with one free slot left %d blocks, %d spare; want 4, 1", len(pool.Store().blocks), len(pool.spare))
	}
	if h := pool.Alloc(); h != 5 {
		t.Fatalf("Alloc after Free returned %d, want the freed 5", h)
	}
	if h := pool.Alloc(); h != 3<<BlockBits || len(pool.Store().blocks) != 4 || len(pool.spare) != 0 {
		t.Fatalf("carve into the reserved entry returned %d with %d blocks", h, len(pool.Store().blocks))
	}
	pool.Free(9)
	pool.Reset()
	for i := range BlockSize + 1 {
		if h := pool.Alloc(); h != Handle(i) {
			t.Fatalf("Alloc %d after Reset returned %d, want %d", i, h, i)
		}
	}
}

func TestPoolUniqueIDs(t *testing.T) {
	var pool Pool
	seen := map[ID]bool{}
	var live []*Packet
	for i := 0; i < 1000; i++ {
		p := pool.Get()
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
		live = append(live, p)
		if i%3 == 0 {
			pool.Put(live[0])
			live = live[1:]
		}
	}
	if pool.Outstanding() != 1000 {
		t.Errorf("outstanding=%d", pool.Outstanding())
	}
}

func TestEnterGroupClearsLocalMisroute(t *testing.T) {
	var p Packet
	p.Reset()
	p.MisrouteGroup = 3
	p.EnterGroup(3) // same group: flag persists
	if p.MisrouteGroup != 3 {
		t.Error("flag cleared within the misroute group")
	}
	p.EnterGroup(4) // group change: flag resets
	if p.MisrouteGroup != -1 {
		t.Error("flag not cleared on group change")
	}
}

func TestEnterGroupCompletesValiant(t *testing.T) {
	var p Packet
	p.Reset()
	p.ValiantGroup = 7
	p.EnterGroup(6)
	if p.ValiantGroup != 7 {
		t.Error("valiant group cleared early")
	}
	p.EnterGroup(7)
	if p.ValiantGroup != -1 {
		t.Error("valiant group not cleared on arrival")
	}
}

func TestEnterGroupQuick(t *testing.T) {
	f := func(groups []uint8, misG uint8) bool {
		var p Packet
		p.Reset()
		p.MisrouteGroup = int16(misG)
		for _, g := range groups {
			p.EnterGroup(int(g))
			// Invariant: the flag may only be set while in its group.
			if p.MisrouteGroup >= 0 && int(p.MisrouteGroup) != int(misG) {
				return false
			}
			if p.MisrouteGroup >= 0 && int(g) != int(misG) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRefsRef: Index de-duplicates and sorts the visited handles by packet
// ID into a table of exactly their number, a reference encodes as the packet's position and decodes to the same
// handle, a position past the table fails instead of indexing, and Reset
// empties the table but keeps the capacity.
func TestRefsRef(t *testing.T) {
	var pool Pool
	a, b, c := pool.Alloc(), pool.Alloc(), pool.Alloc()
	s := pool.Store()
	s.At(a).ID, s.At(b).ID, s.At(c).ID = 9, 4, 6
	var tab Refs
	tab.Index(s, func(visit func(Handle)) {
		for _, h := range []Handle{a, b, c, b} {
			visit(h)
		}
	})
	if tab.Len() != 3 || tab.At(0) != b || tab.At(1) != c || tab.At(2) != a || cap(tab.order) != 3 {
		t.Fatalf("table of %d packets, capacity %d: %v", tab.Len(), cap(tab.order), tab.order)
	}
	var e simcore.Enc
	enc := simcore.Encoder(&e)
	for _, h := range []Handle{a, c, b} {
		tab.Ref(enc, &h)
	}
	if string(e.Data()) != "\x02\x01\x00" {
		t.Fatalf("references encoded as % x, want positions 2 1 0", e.Data())
	}
	dec := simcore.Decoder(simcore.NewDec(e.Data()))
	for _, want := range []Handle{a, c, b} {
		var h Handle
		if tab.Ref(dec, &h); h != want {
			t.Fatalf("decoded handle %d, want %d", h, want)
		}
	}
	h := None
	dec = simcore.Decoder(simcore.NewDec([]byte{3}))
	if tab.Ref(dec, &h); dec.Err() == nil || h != None {
		t.Fatal("a position past the table decoded")
	}
	had := cap(tab.order)
	tab.Reset(2)
	if tab.Len() != 0 || cap(tab.order) != had {
		t.Fatalf("after Reset: %d packets, capacity %d, want 0, %d", tab.Len(), cap(tab.order), had)
	}
	tab.Add(c)
	if tab.Len() != 1 || tab.At(0) != c {
		t.Fatal("Add after Reset did not take position 0")
	}
}

// TestPacketSize pins the packet record at 64 bytes or less: a simulation
// above saturation holds hundreds of thousands, so a new or widened field
// must fit the layout the Packet comment sets out. At 64 bytes a block of
// BlockSize packets is 16 KiB, which the allocator page-aligns, so every
// packet sits on one cache line.
func TestPacketSize(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 64 {
		t.Errorf("Packet takes %d bytes, want ≤ 64", size)
	}
}
