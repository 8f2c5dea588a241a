// Adversarial: reproduces the paper's core claim (§III + Fig. 5) at laptop
// scale. ADV+h traffic — every group sends to the group h positions away —
// saturates single local links inside intermediate groups. Mechanisms
// without in-transit local misrouting (MIN, VAL, PB, OFAR-L) are pinned at
// or below the 1/h ceiling; OFAR routes around the hotspot and approaches
// the 0.5 global-link bound.
package main

import (
	"fmt"
	"log"

	"ofar"
)

func main() {
	const h = 3
	base := ofar.DefaultConfig(h)

	sim, err := ofar.NewSimulator(base)
	if err != nil {
		log.Fatal(err)
	}
	d := sim.Topology()
	fmt.Printf("ADV+%d on a %d-node dragonfly (h=%d)\n", h, d.Nodes, h)
	fmt.Printf("analytic ceilings: MIN %.4f, VAL local-link cap %.4f, global bound %.2f\n\n",
		d.MinGlobalWorstCaseThroughput(), d.AdvValiantLocalCap(h), d.ValiantThroughputBound())

	fmt.Printf("%-8s %12s %12s %14s %14s\n",
		"routing", "saturation", "latency@0.1", "misroutes/pkt", "ring-use")
	for _, rt := range []ofar.Routing{ofar.MIN, ofar.VAL, ofar.PB, ofar.OFARL, ofar.OFAR} {
		cfg := base.WithRouting(rt) // VC-ordered baselines take no escape ring
		sat, err := ofar.RunSteady(cfg, ofar.Adv(h), 1.0, 3000, 5000)
		if err != nil {
			log.Fatal(err)
		}
		low, err := ofar.RunSteady(cfg, ofar.Adv(h), 0.1, 3000, 5000)
		if err != nil {
			log.Fatal(err)
		}
		mis := float64(sat.GlobalMisroutes+sat.LocalMisroutes) / float64(sat.Delivered+1)
		fmt.Printf("%-8s %12.4f %12.1f %14.2f %13.2f%%\n",
			rt, sat.Throughput, low.AvgLatency, mis, 100*sat.EscapeFraction)
	}

	fmt.Println("\nexpected shape: OFAR far above the rest; VAL/PB/OFAR-L near the")
	fmt.Println("local-link cap; MIN collapsed to the single-global-link bound.")
}
