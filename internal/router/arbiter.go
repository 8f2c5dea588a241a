package router

// LRS is a least-recently-served arbiter over a fixed set of requesters
// (paper §V: "Each arbiter employs a least-recently served (LRS) policy").
// Grant picks the requester that was served longest ago; ties break on the
// lower index, which keeps runs deterministic.
type LRS struct {
	lastServed []int64
}

// InitLRS sizes the arbiter for n requesters.
func (a *LRS) InitLRS(n int) { a.initLRS(new(Arena), n) }

// initLRS sizes the arbiter with its timestamp row carved from ar: a
// router's arbiter state then lives in one group slab instead of 2·ports
// tiny heap slices.
func (a *LRS) initLRS(ar *Arena, n int) {
	a.lastServed = ar.Int64s(n)
	for i := range a.lastServed {
		a.lastServed[i] = -1
	}
}

// Pick returns the least recently served requester among those for which
// eligible reports true, or -1 when none is eligible. It does not commit
// the grant; call Grant once the allocation iteration accepts it.
func (a *LRS) Pick(eligible func(i int) bool) int {
	best := -1
	var bestT int64
	for i := range a.lastServed {
		if !eligible(i) {
			continue
		}
		if best == -1 || a.lastServed[i] < bestT {
			best = i
			bestT = a.lastServed[i]
		}
	}
	return best
}

// Grant commits a grant to requester i at the given cycle.
func (a *LRS) Grant(i int, now int64) { a.lastServed[i] = now }
