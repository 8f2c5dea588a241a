package router

// FlagBoard carries the piggybacked global-link congestion flags that the
// PB mechanism broadcasts inside each group (Jiang et al., ISCA 2009; paper
// §II/§V). Each router publishes one boolean per global link it owns; every
// router of the group reads the flags with a fixed broadcast delay, modeling
// the local-link propagation of the piggybacked state.
//
// The board stores per-link transitions rather than per-cycle snapshots:
// owners only need to publish when a flag's value actually changed (the
// network's incremental PB maintenance relies on this), and a reader at
// cycle t sees the value that was current at cycle t-delay. A short ring of
// per-cycle history rows backs reads that fall before the latest transition;
// it is filled lazily on each transition, so an unchanged flag costs nothing
// per cycle no matter how many cycles pass.
type FlagBoard struct {
	delay int
	links int

	cur   []bool  // latest published value per link
	curAt []int64 // cycle at which cur took effect
	// hist[t % (delay+1)][link] holds the link's value at cycle t for the
	// cycles in [curAt-delay, curAt-1], maintained by the lazy fill in Set.
	hist [][]bool
}

// NewFlagBoard creates a board for `links` global links with the given
// broadcast delay in cycles.
func NewFlagBoard(links, delay int) *FlagBoard {
	if delay < 0 {
		delay = 0
	}
	fb := &FlagBoard{
		delay: delay,
		links: links,
		cur:   make([]bool, links),
		curAt: make([]int64, links),
		hist:  make([][]bool, delay+1),
	}
	for i := range fb.hist {
		fb.hist[i] = make([]bool, links)
	}
	return fb
}

// Set publishes the flag of one link as computed at cycle now. The value is
// assumed constant since the previous Set of the same link, so owners may
// (and do, see Router.PBDirty) skip publishing while the flag is
// unchanged. Publishes must be monotone in now. Setting the current value
// again is a no-op.
func (fb *FlagBoard) Set(now int64, link int, v bool) {
	if v == fb.cur[link] {
		return
	}
	// The value held fb.cur[link] from curAt up to now-1; back-fill the
	// history rows still inside the delay window before recording the
	// transition.
	from := fb.curAt[link]
	if low := now - int64(fb.delay); from < low {
		from = low
	}
	h := int64(len(fb.hist))
	for t := from; t < now; t++ {
		if t >= 0 {
			fb.hist[t%h][link] = fb.cur[link]
		}
	}
	fb.cur[link] = v
	fb.curAt[link] = now
}

// Get returns the delayed view of one link's flag at cycle now: the value
// that was current at cycle now-delay.
func (fb *FlagBoard) Get(now int64, link int) bool {
	t := now - int64(fb.delay)
	if t < 0 {
		return false
	}
	if t >= fb.curAt[link] {
		return fb.cur[link]
	}
	return fb.hist[t%int64(len(fb.hist))][link]
}
