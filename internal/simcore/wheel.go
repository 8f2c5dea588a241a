package simcore

// Wheel is a timing wheel delivering opaque events at future cycles. The
// simulator uses it for in-flight packets (arrival = departure + link
// latency) and credit returns. The horizon must exceed the largest latency
// scheduled; Schedule panics otherwise, which would indicate a configuration
// bug rather than a runtime condition.
type Wheel[T any] struct {
	slots [][]T
	due   []T // recycled arena returned by Advance; never aliases a slot
	now   int64
	count int
}

// NewWheel builds a wheel with the given horizon (maximum schedulable delay).
func NewWheel[T any](horizon int) *Wheel[T] {
	if horizon < 1 {
		horizon = 1
	}
	return &Wheel[T]{slots: make([][]T, horizon+1)}
}

// Reset empties the wheel and rewinds it to cycle 0, exactly as NewWheel
// leaves it, except that every bucket keeps its capacity. The whole of each
// backing array is zeroed, so no old event stays reachable.
func (w *Wheel[T]) Reset() {
	for i, slot := range w.slots {
		clear(slot[:cap(slot)])
		w.slots[i] = slot[:0]
	}
	clear(w.due[:cap(w.due)])
	w.due = w.due[:0]
	w.now, w.count = 0, 0
}

// Schedule places ev at delay cycles in the future. delay must be in
// [0, horizon]; delay 0 means "deliverable at the next Advance".
func (w *Wheel[T]) Schedule(delay int, ev T) {
	if delay < 0 || delay >= len(w.slots) {
		panic("simcore: event delay outside wheel horizon")
	}
	idx := (int(w.now) + delay) % len(w.slots)
	w.slots[idx] = append(w.slots[idx], ev)
	w.count++
}

// Advance moves the wheel one cycle forward and returns the events due now.
// The returned slice is valid until the next Advance call and is safe to
// iterate while calling Schedule — including at delay == horizon, which
// lands in the slot just drained. (Returning the slot itself would alias
// its backing array with such appends and corrupt the in-progress
// iteration.) The slice is copied into a recycled arena, so steady-state
// Advance does not allocate.
func (w *Wheel[T]) Advance() []T {
	idx := int(w.now) % len(w.slots)
	slot := w.slots[idx]
	w.slots[idx] = slot[:0]
	w.now++
	w.count -= len(slot)
	prev := len(w.due)
	w.due = append(w.due[:0], slot...)
	if len(slot) < prev {
		// The arena shrank: zero the tail so events from a previous, larger
		// batch don't stay reachable through the backing array — a burst peak
		// would otherwise pin its dead packet pointers long after load drops.
		var zero T
		tail := w.due[len(slot):prev]
		for j := range tail {
			tail[j] = zero
		}
	}
	return w.due
}

// Peek returns the events due k cycles from now (0 = the next Advance), in
// delivery order, without removing them: the slot itself, valid until the
// wheel is next mutated. k must be below the horizon.
func (w *Wheel[T]) Peek(k int) []T {
	return w.slots[(int(w.now)+k)%len(w.slots)]
}

// Skip moves the wheel k cycles forward, discarding the events due in them
// (the caller consumed them through Peek). Each emptied slot keeps its
// capacity and drops its references.
func (w *Wheel[T]) Skip(k int) {
	for ; k > 0; k-- {
		idx := int(w.now) % len(w.slots)
		slot := w.slots[idx]
		clear(slot)
		w.slots[idx] = slot[:0]
		w.count -= len(slot)
		w.now++
	}
}

// ForEach visits every scheduled-but-undelivered event in an unspecified
// order. It exists for rare structural surgery (fault injection inspects
// in-flight traffic on a dying link); do not mutate the wheel during the
// walk.
func (w *Wheel[T]) ForEach(f func(T)) {
	for _, slot := range w.slots {
		for _, ev := range slot {
			f(ev)
		}
	}
}

// Filter removes every scheduled event for which keep returns false,
// preserving the relative order of the survivors within each slot (and
// therefore their delivery order). Same audience as ForEach: structural
// surgery on faults, not the per-cycle hot path.
func (w *Wheel[T]) Filter(keep func(T) bool) {
	var zero T
	for i, slot := range w.slots {
		kept := slot[:0]
		for _, ev := range slot {
			if keep(ev) {
				kept = append(kept, ev)
			}
		}
		w.count -= len(slot) - len(kept)
		for j := len(kept); j < len(slot); j++ {
			slot[j] = zero // drop references held by removed events
		}
		w.slots[i] = kept
	}
}

// ForEachDelay visits every scheduled-but-undelivered event in delivery
// order: ascending delay (cycles until the event fires, 0 = next Advance),
// and within one delay the slot's append order — which is the order Advance
// will hand them out. Re-scheduling each visited event at its reported delay
// into a fresh wheel therefore reproduces this wheel's observable behavior
// exactly; the snapshot writer relies on that. Do not mutate the wheel
// during the walk.
func (w *Wheel[T]) ForEachDelay(f func(delay int, ev T)) {
	h := len(w.slots)
	for d := 0; d < h; d++ {
		for _, ev := range w.slots[(int(w.now)+d)%h] {
			f(d, ev)
		}
	}
}

// Horizon returns the maximum schedulable delay.
func (w *Wheel[T]) Horizon() int { return len(w.slots) - 1 }

// Pending reports how many events are scheduled but not yet delivered.
func (w *Wheel[T]) Pending() int { return w.count }

// Now returns the wheel's current cycle (number of Advance calls so far).
func (w *Wheel[T]) Now() int64 { return w.now }
