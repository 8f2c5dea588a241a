package traffic

import (
	"fmt"
	"slices"
	"testing"

	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// nextLoop is the reference NextRange: the per-node contract, node by node.
func nextLoop(g Generator, rng *simcore.RNG, lo, hi int, now int64, hits []Hit) []Hit {
	for node := lo; node < hi; node++ {
		if dst, ok := g.Next(rng, node, now); ok {
			hits = append(hits, Hit{Node: int32(node), Dst: int32(dst)})
		}
	}
	return hits
}

// TestNextRangeMatchesNextLoop: for the ranged sources, over every pattern
// family, loads from "never" through "rarely" to "always without a draw", and
// ranges of length 0, 1 and a whole h=6 group, NextRange appends the hits the
// Next loop appends and leaves the stream where that loop leaves it.
func TestNextRangeMatchesNextLoop(t *testing.T) {
	d, err := topology.New(6, 12, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	un, adv := NewUniform(d), NewAdv(d, d.H)
	patterns := []Pattern{un, adv, NewMix("MIX", []Pattern{un, adv, NewAdv(d, 1)}, []float64{0.6, 0.3, 0.1})}
	const size = 8
	group := d.P * d.A
	seed := uint64(1)
	for _, pat := range patterns {
		for _, load := range []float64{0, 1e-9, 0.05, 0.5, 8} {
			sources := []RangeGenerator{ // DrawRange must find their NextRange
				NewBernoulli(pat, load, size),
				NewTransient(un, pat, 100, load, size),
			}
			for _, src := range sources {
				for _, n := range []int{0, 1, group} {
					for _, now := range []int64{99, 100} {
						name := fmt.Sprintf("%s/load=%g/len=%d/now=%d", src.Name(), load, n, now)
						lo := 5 * group
						seed++
						a, b := simcore.NewRNG(seed), simcore.NewRNG(seed)
						prefix := []Hit{{Node: -1, Dst: -1}} // NextRange appends
						for rep := 0; rep < 50; rep++ {
							got := DrawRange(src, a, lo, lo+n, now, slices.Clone(prefix))
							want := nextLoop(src, b, lo, lo+n, now, slices.Clone(prefix))
							if !slices.Equal(got, want) {
								t.Fatalf("%s: NextRange %v, Next loop %v", name, got, want)
							}
							if a.State() != b.State() {
								t.Fatalf("%s: NextRange and the Next loop consumed different draws", name)
							}
						}
					}
				}
			}
		}
	}
}
