// Burst: reproduces the §VI-C experiment — synchronized post-barrier
// communication bursts. Every node injects a fixed number of packets as
// fast as the network accepts them; the metric is the time until the whole
// burst is consumed, normalized to PB (the paper's Fig. 7; lower is better).
package main

import (
	"fmt"
	"log"

	"ofar"
)

func main() {
	const h = 3
	const perNode = 100 // the paper uses 2000/node on the h=6 network

	patterns := []string{"UN", "ADV+2", fmt.Sprintf("ADV+%d", h), "MIX1", "MIX2", "MIX3"}

	fmt.Printf("burst of %d packets/node on an h=%d dragonfly\n\n", perNode, h)
	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n",
		"pattern", "PB", "OFAR", "OFAR-L", "OFAR/PB", "OFARL/PB")

	var sumOFAR, sumOFARL float64
	for _, ps := range patterns {
		cycles := map[ofar.Routing]int64{}
		for _, rt := range []ofar.Routing{ofar.PB, ofar.OFAR, ofar.OFARL} {
			r, err := ofar.Experiment{H: h, Routing: string(rt), Pattern: ps,
				Burst: &ofar.Burst{PerNode: perNode, MaxCycles: 50_000_000}}.Resolve()
			if err != nil {
				log.Fatal(err)
			}
			res, err := r.Run(0, ofar.SweepOptions{}) // a burst has no load axis
			if err != nil {
				log.Fatal(err)
			}
			if !res.Burst.Drained {
				log.Fatalf("%s/%s: burst not consumed", rt, ps)
			}
			cycles[rt] = res.Burst.Cycles
		}
		ro := float64(cycles[ofar.OFAR]) / float64(cycles[ofar.PB])
		rl := float64(cycles[ofar.OFARL]) / float64(cycles[ofar.PB])
		sumOFAR += ro
		sumOFARL += rl
		fmt.Printf("%-8s %10d %10d %10d %10.3f %10.3f\n",
			ps, cycles[ofar.PB], cycles[ofar.OFAR], cycles[ofar.OFARL], ro, rl)
	}
	n := float64(len(patterns))
	fmt.Printf("%-8s %10s %10s %10s %10.3f %10.3f\n", "average", "", "", "",
		sumOFAR/n, sumOFARL/n)
	fmt.Println("\npaper (h=6, 2000 pkts/node): OFAR/PB averages 0.695 — a 43.8% speedup.")
}
