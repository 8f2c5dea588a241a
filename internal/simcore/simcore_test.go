package simcore

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Derive(1)
	parent2 := NewRNG(7)
	_ = parent2.Derive(1)
	c2 := parent2.Derive(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("derived streams 1 and 2 coincide")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %f, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) missed")
		}
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if math.Abs(float64(hits)/draws-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate %f", float64(hits)/draws)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestWheelDeliversInOrder(t *testing.T) {
	w := NewWheel[int](10)
	w.Schedule(0, 100)
	w.Schedule(3, 103)
	w.Schedule(3, 203)
	w.Schedule(10, 110)
	got := map[int64][]int{}
	for c := int64(0); c <= 10; c++ {
		for _, ev := range w.Advance() {
			got[c] = append(got[c], ev)
		}
	}
	if len(got[0]) != 1 || got[0][0] != 100 {
		t.Errorf("cycle 0: %v", got[0])
	}
	if len(got[3]) != 2 {
		t.Errorf("cycle 3: %v", got[3])
	}
	if len(got[10]) != 1 || got[10][0] != 110 {
		t.Errorf("cycle 10: %v", got[10])
	}
	if w.Pending() != 0 {
		t.Errorf("pending=%d", w.Pending())
	}
}

func TestWheelWrapsAround(t *testing.T) {
	w := NewWheel[int](4)
	for round := 0; round < 20; round++ {
		w.Schedule(4, round)
		// delay d is delivered on the (d+1)-th Advance after scheduling.
		for i := 0; i < 4; i++ {
			if evs := w.Advance(); len(evs) != 0 {
				t.Fatalf("round %d: early delivery %v", round, evs)
			}
		}
		evs := w.Advance()
		if len(evs) != 1 || evs[0] != round {
			t.Fatalf("round %d: got %v", round, evs)
		}
	}
}

// TestWheelScheduleDuringAdvanceIteration schedules at delay == horizon —
// the slot that Advance just drained — while iterating the returned slice.
// With the old slot-aliasing Advance, those appends wrote into the backing
// array of the slice being iterated: scheduling two events per consumed
// event overtakes the read position and corrupts the not-yet-read tail.
func TestWheelScheduleDuringAdvanceIteration(t *testing.T) {
	const horizon = 4
	w := NewWheel[int](horizon)
	w.Schedule(0, 1)
	w.Schedule(0, 2)
	w.Schedule(0, 3)
	due := w.Advance()
	var got []int
	for i := 0; i < len(due); i++ {
		got = append(got, due[i])
		w.Schedule(horizon, 100+due[i])
		w.Schedule(horizon, 200+due[i])
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("due slice corrupted by Schedule during iteration: %v", got)
	}
	// The rescheduled events must arrive intact horizon cycles later:
	// delay d is delivered on the (d+1)-th Advance after scheduling.
	for i := 0; i < horizon; i++ {
		if evs := w.Advance(); len(evs) != 0 {
			t.Fatalf("early delivery %v", evs)
		}
	}
	evs := w.Advance()
	want := []int{101, 201, 102, 202, 103, 203}
	if len(evs) != len(want) {
		t.Fatalf("rescheduled events lost: %v", evs)
	}
	for i, v := range want {
		if evs[i] != v {
			t.Fatalf("rescheduled events corrupted: got %v, want %v", evs, want)
		}
	}
	if w.Pending() != 0 {
		t.Errorf("pending=%d", w.Pending())
	}
}

// TestWheelAdvanceClearsDueTail pins the arena-hygiene fix in Advance: the
// recycled due slice is reused across cycles with append(due[:0], ...), so a
// large batch (a burst peak) used to leave its pointers live in the backing
// array's tail for the rest of the run. After a smaller batch, the tail past
// the new length must be zeroed so the old events become collectable.
func TestWheelAdvanceClearsDueTail(t *testing.T) {
	w := NewWheel[*int](4)
	big := make([]*int, 8)
	for i := range big {
		v := i
		big[i] = &v
		w.Schedule(0, big[i])
	}
	if got := w.Advance(); len(got) != len(big) {
		t.Fatalf("burst batch: got %d events, want %d", len(got), len(big))
	}
	// Smaller follow-up batch reuses the same arena.
	v := 99
	w.Schedule(0, &v)
	due := w.Advance()
	if len(due) != 1 || *due[0] != 99 {
		t.Fatalf("follow-up batch: %v", due)
	}
	tail := due[1:cap(due)]
	for j, ev := range tail {
		if ev != nil {
			t.Fatalf("due arena tail[%d] still pins an event from the larger batch", j)
		}
	}
	// An empty batch must clear the single survivor too.
	empty := w.Advance()
	if len(empty) != 0 {
		t.Fatalf("expected empty batch, got %v", empty)
	}
	for j, ev := range empty[:cap(empty)] {
		if ev != nil {
			t.Fatalf("due arena[%d] still pins an event after an empty batch", j)
		}
	}
}

func TestWheelPanicsOutsideHorizon(t *testing.T) {
	w := NewWheel[int](5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.Schedule(6, 1)
}

func TestWheelCounts(t *testing.T) {
	w := NewWheel[string](8)
	w.Schedule(1, "a")
	w.Schedule(2, "b")
	if w.Pending() != 2 {
		t.Fatalf("pending=%d", w.Pending())
	}
	w.Advance()
	w.Advance()
	w.Advance()
	if w.Pending() != 0 || w.Now() != 3 {
		t.Fatalf("pending=%d now=%d", w.Pending(), w.Now())
	}
}

// TestWheelReset: a wheel that has been run, Reset and re-filled delivers
// exactly what a new wheel filled the same way does, cycle for cycle; the
// buckets keep the capacity they grew to (so a refill allocates nothing);
// and no event scheduled before the Reset stays reachable through a backing
// array.
func TestWheelReset(t *testing.T) {
	type sched struct{ delay, id int }
	cases := []struct {
		name     string
		horizon  int
		before   []sched // scheduled into the wheel that gets Reset
		advances int     // Advance calls before the Reset
		after    []sched // scheduled after the Reset / into the new wheel
	}{
		{"unused wheel", 5, nil, 0, []sched{{0, 1}, {3, 2}, {5, 3}}},
		{"pending events dropped", 5, []sched{{0, 9}, {2, 8}, {5, 7}}, 1, []sched{{1, 1}, {1, 2}, {4, 3}}},
		{"mid-rotation, same slots", 3, []sched{{1, 9}, {3, 8}}, 2, []sched{{0, 1}, {3, 2}, {0, 3}, {2, 4}}},
		{"refill to empty", 4, []sched{{2, 9}}, 7, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]int, 16)
			ptr := func(id int) *int { vals[id] = id; return &vals[id] }
			used, fresh := NewWheel[*int](tc.horizon), NewWheel[*int](tc.horizon)
			for _, s := range tc.before {
				used.Schedule(s.delay, ptr(s.id))
			}
			for i := 0; i < tc.advances; i++ {
				used.Advance()
			}
			used.Reset()
			if used.Now() != 0 || used.Pending() != 0 {
				t.Fatalf("after Reset: now %d, %d pending", used.Now(), used.Pending())
			}
			for i, slot := range used.slots {
				for j, ev := range slot[:cap(slot)] {
					if ev != nil {
						t.Fatalf("slot %d[%d] still holds event %d", i, j, *ev)
					}
				}
			}
			for j, ev := range used.due[:cap(used.due)] {
				if ev != nil {
					t.Fatalf("due[%d] still holds event %d", j, *ev)
				}
			}
			for _, s := range tc.after {
				used.Schedule(s.delay, ptr(s.id))
				fresh.Schedule(s.delay, ptr(s.id))
			}
			for c := 0; c <= 2*tc.horizon+2; c++ {
				a, b := used.Advance(), fresh.Advance()
				if len(a) != len(b) {
					t.Fatalf("cycle %d: %d events, a new wheel delivers %d", c, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d event %d: %d, a new wheel delivers %d", c, i, *a[i], *b[i])
					}
				}
			}
		})
	}

	w := NewWheel[int](4)
	for i := 0; i < 64; i++ {
		w.Schedule(i%5, i)
	}
	refill := func() {
		w.Reset()
		for i := 0; i < 64; i++ {
			w.Schedule(i%5, i)
		}
	}
	if allocs := testing.AllocsPerRun(10, refill); allocs != 0 {
		t.Fatalf("refilling a Reset wheel allocates %.0f times: bucket capacity was not kept", allocs)
	}
}
