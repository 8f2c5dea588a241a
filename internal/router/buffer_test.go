package router

import (
	"testing"
	"testing/quick"
	"unsafe"

	"ofar/internal/packet"
	"ofar/internal/simcore"
)

func TestVCBufferBasics(t *testing.T) {
	var b VCBuffer
	b.Init(4, -1)
	if b.Ring != -1 {
		t.Error("canonical buffer flagged as escape")
	}
	if b.Len() != 0 || b.Free() != 4 {
		t.Error("fresh buffer not empty")
	}
	const p1, p2 packet.Handle = 7, 3
	b.Push(p1)
	b.Push(p2)
	if b.Len() != 2 || b.Free() != 2 {
		t.Errorf("len=%d free=%d", b.Len(), b.Free())
	}
	if b.Head() != p1 {
		t.Error("head is not FIFO order")
	}
	b.BeginDrain()
	if !b.Draining() {
		t.Error("not draining")
	}
	if got := b.FinishDrain(); got != p1 {
		t.Error("drained wrong packet")
	}
	if b.Draining() || b.Len() != 1 || b.Free() != 3 {
		t.Error("drain bookkeeping wrong")
	}
	if b.Head() != p2 {
		t.Error("head after drain")
	}
}

func TestVCBufferEscapeTag(t *testing.T) {
	var b VCBuffer
	b.Init(4, 2)
	if b.Ring != 2 {
		t.Errorf("escape ring %d, want 2", b.Ring)
	}
}

func TestVCBufferOverflowPanics(t *testing.T) {
	var b VCBuffer
	b.Init(1, -1)
	b.Push(0)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	b.Push(1)
}

func TestVCBufferDrainPanics(t *testing.T) {
	var b VCBuffer
	b.Init(1, -1)
	if didPanic(func() { b.BeginDrain() }) == false {
		t.Error("BeginDrain on empty buffer must panic")
	}
	if didPanic(func() { b.FinishDrain() }) == false {
		t.Error("FinishDrain without BeginDrain must panic")
	}
}

func didPanic(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// TestVCBufferFIFOQuick pushes/drains randomly and checks FIFO order and
// free-space accounting.
func TestVCBufferFIFOQuick(t *testing.T) {
	f := func(ops []bool) bool {
		var b VCBuffer
		b.Init(1<<20, -1)
		var expect []packet.Handle
		for i, push := range ops {
			if push {
				b.Push(packet.Handle(i))
				expect = append(expect, packet.Handle(i))
			} else if len(expect) > 0 {
				b.BeginDrain()
				if b.FinishDrain() != expect[0] {
					return false
				}
				expect = expect[1:]
			}
			if b.Len() != len(expect) || b.Free() != 1<<20-len(expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVCBufferRing covers the two regimes of the queue ring. A bare buffer
// (no carved slots) grows on demand and keeps FIFO order across growth and
// wrap-around. A buffer carved the way NewInto carves it — Capacity+1
// slots — that never fully empties stays in exactly those slots however far
// its head walks, which is what keeps VC queues on the group arena.
func TestVCBufferRing(t *testing.T) {
	var next packet.Handle
	var b VCBuffer
	b.Init(1<<20, -1)
	var live []packet.Handle
	for i := 0; i < 500; i++ {
		b.Push(next)
		live = append(live, next)
		next++
		if i%3 != 0 {
			b.BeginDrain()
			if got := b.FinishDrain(); got != live[0] {
				t.Fatalf("iteration %d: wrong packet", i)
			}
			live = live[1:]
		}
	}
	for len(live) > 0 {
		b.BeginDrain()
		if got := b.FinishDrain(); got != live[0] {
			t.Fatal("tail drain order broken")
		}
		live = live[1:]
	}
	if b.Len() != 0 || b.Free() != 1<<20 {
		t.Error("buffer not empty after full drain")
	}

	slots := queueSlots(4)
	ar := NewArena(ArenaSize{PacketSlots: slots})
	var c VCBuffer
	c.q = carve(ar, &ar.pkts, slots)
	c.Init(4, -1)
	home := &c.q[0]
	for i := 0; i < 1000; i++ {
		for c.Free() > 0 && (c.Len() < 2 || i%3 == 0) {
			c.Push(next)
			live = append(live, next)
			next++
		}
		c.BeginDrain()
		if got := c.FinishDrain(); got != live[0] {
			t.Fatalf("round %d: wrong packet", i)
		}
		if live = live[1:]; c.Len() != len(live) || c.Len() == 0 {
			t.Fatalf("round %d: %d queued, want %d (never empty)", i, c.Len(), len(live))
		}
	}
	if &c.q[0] != home || c.QueueSlots() != slots || ar.Spill != 0 {
		t.Fatalf("queue left its %d carved slots (now %d, spill %d)", slots, c.QueueSlots(), ar.Spill)
	}
	// A wrapped queue with a draining head drops exactly the packets behind it.
	for c.Free() > 0 {
		c.Push(next)
		live = append(live, next)
		next++
	}
	c.BeginDrain()
	var dropped []packet.Handle
	c.DropQueued(func(h packet.Handle) { dropped = append(dropped, h) })
	if len(dropped) != len(live)-1 || c.Len() != 1 || c.Free() != 3 {
		t.Fatalf("dropped %d of %d, %d left", len(dropped), len(live), c.Len())
	}
	for i, h := range dropped {
		if h != live[i+1] {
			t.Fatalf("drop %d out of FIFO order", i)
		}
	}
	if got := c.FinishDrain(); got != live[0] || c.Len() != 0 {
		t.Fatal("draining head did not survive DropQueued")
	}
}

func rankPick(row []uint8, eligible func(i int) bool) int {
	best := -1
	for i, rk := range row {
		if eligible(i) && (best == -1 || rk < row[best]) {
			best = i
		}
	}
	return best
}

func TestLRSFairness(t *testing.T) {
	row := make([]uint8, 3)
	initRanks(row)
	all := func(int) bool { return true }
	order := []int{}
	for i := 0; i < 6; i++ {
		pick := rankPick(row, all)
		grantRank(row, pick)
		order = append(order, pick)
	}
	// Round-robin-like rotation: each requester served twice in 6 grants.
	counts := map[int]int{}
	for _, x := range order {
		counts[x]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] != 2 {
			t.Fatalf("requester %d served %d times in %v", i, counts[i], order)
		}
	}
}

func TestLRSEligibility(t *testing.T) {
	row := make([]uint8, 4)
	initRanks(row)
	if got := rankPick(row, func(i int) bool { return i == 2 }); got != 2 {
		t.Errorf("pick=%d", got)
	}
	if got := rankPick(row, func(int) bool { return false }); got != -1 {
		t.Errorf("pick on empty=%d", got)
	}
	// After serving 0 and 1, the least recently served eligible of {0,1} is 0.
	grantRank(row, 0)
	grantRank(row, 1)
	if got := rankPick(row, func(i int) bool { return i < 2 }); got != 0 {
		t.Errorf("LRS pick=%d want 0", got)
	}
}

// TestRanksFollowTimestamps: after any sequence of one-grant-per-cycle
// grants, a rank row orders its requesters exactly as their last-grant
// cycles do, never-served ones first in index order, and stays a
// permutation.
func TestRanksFollowTimestamps(t *testing.T) {
	rng := simcore.NewRNG(0x7A4C)
	for _, n := range []int{1, 2, 5, 24, 64} {
		row := make([]uint8, n)
		initRanks(row)
		model := newLRSModel(n)
		for now := int64(0); now < 400; now++ {
			w := rng.Intn(n)
			grantRank(row, w)
			model.grant(w, now)
			if !validRanks(row) {
				t.Fatalf("n=%d cycle %d: ranks %v are not a permutation", n, now, row)
			}
			for i := range n {
				for j := range n {
					older := model[i] < model[j] || model[i] == model[j] && i < j
					if older != (row[i] < row[j]) {
						t.Fatalf("n=%d cycle %d: requesters %d (last %d) and %d (last %d) have ranks %d and %d",
							n, now, i, model[i], j, model[j], row[i], row[j])
					}
				}
			}
		}
	}
	for _, bad := range [][]uint8{{0, 0}, {1, 2}, {2, 0, 1, 1}} {
		if validRanks(bad) {
			t.Errorf("validRanks accepted %v", bad)
		}
	}
}

// TestRecordSizes bounds the per-port and per-VC records the group arenas
// hold thousands of; a Request is what the reqs slab stores as is.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"VCBuffer", unsafe.Sizeof(VCBuffer{}), 56},
		{"InPort", unsafe.Sizeof(InPort{}), 48},
		{"OutPort", unsafe.Sizeof(OutPort{}), 64},
		{"Request", unsafe.Sizeof(Request{}), 4},
	} {
		if c.size > c.max {
			t.Errorf("%s takes %d bytes, want ≤ %d", c.name, c.size, c.max)
		}
	}
}

func TestFlagBoardDelay(t *testing.T) {
	fb := NewFlagBoard(4, 3)
	fb.Set(0, 1, true)
	for now := int64(0); now < 3; now++ {
		if fb.Get(now, 1) {
			t.Fatalf("flag visible at %d before delay", now)
		}
		// Owners republish every cycle.
		fb.Set(now+1, 1, true)
	}
	if !fb.Get(3, 1) {
		t.Error("flag not visible after delay")
	}
	if fb.Get(3, 0) {
		t.Error("unset flag visible")
	}
}

func TestFlagBoardZeroDelay(t *testing.T) {
	fb := NewFlagBoard(2, 0)
	fb.Set(5, 0, true)
	if !fb.Get(5, 0) {
		t.Error("zero-delay flag not immediately visible")
	}
}

func TestOutPortCredits(t *testing.T) {
	var op OutPort
	op.initOut(new(Arena), []int{2, 2, 1}, []int{-1, -1, 0})
	if op.NumVCs() != 3 {
		t.Fatal("vc count")
	}
	if op.Occupancy() != 0 {
		t.Error("fresh occupancy nonzero")
	}
	op.Take(0)
	// Canonical capacity is 4 packets (escape VC excluded): 1/4 occupied.
	if got := op.Occupancy(); got != 0.25 {
		t.Errorf("occupancy=%f", got)
	}
	op.Take(2) // escape VC does not affect canonical occupancy
	if got := op.Occupancy(); got != 0.25 {
		t.Errorf("occupancy after escape take=%f", got)
	}
	op.Refund(0)
	op.Refund(2)
	if op.Occupancy() != 0 || op.Credits(0) != 2 || op.Credits(2) != 1 {
		t.Error("refund bookkeeping")
	}
	op.Take(2)
	if !didPanic(func() { op.Take(2) }) {
		t.Error("credit underflow must panic")
	}
	if !didPanic(func() { op.Refund(1) }) {
		t.Error("credit overflow must panic")
	}
}

func TestBestVCSelection(t *testing.T) {
	var op OutPort
	op.initOut(new(Arena), []int{2, 2, 1}, []int{-1, -1, 1})
	op.Take(0)
	evc, ok := op.bestEscapeVC(1)
	if !ok || evc != 2 {
		t.Errorf("bestEscapeVC=%d,%v", evc, ok)
	}
	if _, ok := op.bestEscapeVC(0); ok {
		t.Error("found escape VC for wrong ring")
	}
}
