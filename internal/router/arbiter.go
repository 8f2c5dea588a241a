package router

// The allocator's least-recently-served arbiters (paper §V) are rank rows
// carved from the group arena, one byte per requester: its position in LRS
// order, 0 for the one served longest ago. The allocator picks the eligible
// requester of lowest rank. This is the order of last-grant timestamps with
// ties on the lower index: an arbiter grants at most once per cycle, and the
// never-served start in index order (lrsModel in alloc_prop_test.go is that
// timestamp model). Validation caps ports and VCs at 64, so a rank fits a
// byte.

// initRanks puts a rank row in never-served order: requester i has rank i.
func initRanks(row []uint8) {
	for i := range row {
		row[i] = uint8(i)
	}
}

// grantRank moves requester w to the last rank and every rank above w's old
// one down by one (branch-free: the subtrahend is 1 exactly when rk > old).
func grantRank(row []uint8, w int) {
	old := uint64(row[w])
	for i, rk := range row {
		row[i] = rk - uint8((old-uint64(rk))>>63)
	}
	row[w] = uint8(len(row) - 1)
}

// validRanks reports whether row is a permutation of 0..len(row)-1, the only
// state an arbiter reaches; any other row would favour or starve a requester
// forever.
func validRanks(row []uint8) bool {
	var seen uint64
	for _, rk := range row {
		if int(rk) >= len(row) || seen&(1<<rk) != 0 {
			return false
		}
		seen |= 1 << rk
	}
	return true
}
