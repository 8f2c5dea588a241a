package packet

import (
	"slices"
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
	p.OnRing = true
	p.Ring = 2
	pool.Put(p)
	q := pool.Get()
	if q != p {
		t.Error("pool did not reuse the freed packet")
	}
	if q.ID == id1 {
		t.Error("reused packet kept its old ID")
	}
	if q.GlobalMisrouted || q.OnRing || q.Ring != -1 || q.Src != 0 {
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
// 16, 32, …, 512 packets, then 512 again — with every packet of a block
// handed out before the next block is carved, and Get and GetBlank drawing
// on the same blocks.
func TestPoolCarveBlocks(t *testing.T) {
	var pool Pool
	for k, size := range []int{16, 32, 64, 128, 256, 512, 512} {
		for i := range size {
			get := pool.GetBlank
			if i%2 == 1 {
				get = pool.Get
			}
			get()
			if i == 0 && cap(pool.block) != size-1 {
				t.Fatalf("block %d holds %d packets, want %d", k, cap(pool.block)+1, size)
			}
		}
		if len(pool.block) != 0 {
			t.Fatalf("block %d has %d packets left over", k, len(pool.block))
		}
	}
	if got, want := pool.Outstanding(), uint64((16+32+64+128+256+512+512)/2); got != want {
		t.Fatalf("%d IDs handed out, want %d (Get only)", got, want)
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
	p.LocalMisrouted = true
	p.MisrouteGroup = 3
	p.EnterGroup(3) // same group: flag persists
	if !p.LocalMisrouted {
		t.Error("flag cleared within the misroute group")
	}
	p.EnterGroup(4) // group change: flag resets
	if p.LocalMisrouted || p.MisrouteGroup != -1 {
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
		p.LocalMisrouted = true
		p.MisrouteGroup = int16(misG)
		for _, g := range groups {
			p.EnterGroup(int(g))
			// Invariant: the flag may only be set while in its group.
			if p.LocalMisrouted && int(p.MisrouteGroup) != int(misG) {
				return false
			}
			if p.LocalMisrouted && int(g) != int(misG) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTableRef: NewTable sorts and de-duplicates into a slice of exactly
// the visits' length, a reference encodes as the packet's position and
// decodes to the same object, a position past the table fails instead of
// indexing, and Reset drops every packet but keeps the capacity.
func TestTableRef(t *testing.T) {
	a, b, c := &Packet{ID: 9}, &Packet{ID: 4}, &Packet{ID: 6}
	tab := NewTable(func(visit func(*Packet)) {
		for _, p := range []*Packet{a, b, c, b} {
			visit(p)
		}
	})
	if tab.Len() != 3 || tab.At(0) != b || tab.At(1) != c || tab.At(2) != a || cap(tab.es) != 4 {
		t.Fatalf("table of %d packets, capacity %d: %v", tab.Len(), cap(tab.es), tab.es)
	}
	var e simcore.Enc
	enc := simcore.Encoder(&e)
	for _, p := range []*Packet{a, c, b} {
		tab.Ref(enc, &p)
	}
	if string(e.Data()) != "\x02\x01\x00" {
		t.Fatalf("references encoded as % x, want positions 2 1 0", e.Data())
	}
	dec := simcore.Decoder(simcore.NewDec(e.Data()))
	for _, want := range []*Packet{a, c, b} {
		var p *Packet
		if tab.Ref(dec, &p); p != want {
			t.Fatalf("decoded %v, want packet %d", p, want.ID)
		}
	}
	var p *Packet
	dec = simcore.Decoder(simcore.NewDec([]byte{3}))
	if tab.Ref(dec, &p); dec.Err() == nil || p != nil {
		t.Fatal("a position past the table decoded")
	}
	tab.Reset()
	if tab.Len() != 0 || cap(tab.es) != 4 || slices.ContainsFunc(tab.es[:3], func(e tableEntry) bool { return e.p != nil }) {
		t.Fatalf("after Reset: %d packets, capacity %d, %v", tab.Len(), cap(tab.es), tab.es[:3])
	}
	tab.Add(c)
	if tab.Len() != 1 || tab.At(0) != c {
		t.Fatal("Add after Reset did not take position 0")
	}
}

// TestPacketSize pins the packet record at 72 bytes or less: a simulation
// above saturation holds hundreds of thousands, so a new or widened field
// must fit the layout the Packet comment sets out.
func TestPacketSize(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 72 {
		t.Errorf("Packet takes %d bytes, want ≤ 72", size)
	}
}
