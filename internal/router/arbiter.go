package router

// LRS is the memory of a least-recently-served arbiter over a fixed set of
// requesters (paper §V: "Each arbiter employs a least-recently served (LRS)
// policy"). The allocator picks the eligible requester that was served
// longest ago, ties breaking on the lower index, which keeps runs
// deterministic (Router.allocate scans the timestamps inline; lrsPick in
// alloc_prop_test.go is the model it is tested against).
type LRS struct {
	lastServed []int64
}

// initLRS sizes the arbiter with its timestamp row carved from ar: a
// router's arbiter state then lives in one group slab instead of 2·ports
// tiny heap slices.
func (a *LRS) initLRS(ar *Arena, n int) {
	a.lastServed = ar.Int64s(n)
	for i := range a.lastServed {
		a.lastServed[i] = -1
	}
}

// Grant commits a grant to requester i at the given cycle.
func (a *LRS) Grant(i int, now int64) { a.lastServed[i] = now }
