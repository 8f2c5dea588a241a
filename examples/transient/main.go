// Transient: reproduces the §VI-B experiment — how fast each mechanism
// adapts when the traffic pattern changes underneath it. OFAR's in-transit
// decisions adapt almost instantly; PB waits for congestion information to
// build up and broadcast.
package main

import (
	"fmt"
	"log"

	"ofar"
)

func main() {
	const h = 3
	const load = 0.14

	cases := []struct {
		name     string
		from, to string
		load     float64
	}{
		{"UN -> ADV+2", "UN", "ADV+2", load},
		{"ADV+2 -> UN", "ADV+2", "UN", load},
		// The paper lowers the load for ADV+2 -> ADV+h because PB would
		// saturate at 0.14 on ADV+h.
		{"ADV+2 -> ADV+h", "ADV+2", fmt.Sprintf("ADV+%d", h), 0.12},
	}

	for _, c := range cases {
		fmt.Printf("\n=== %s at load %.2f ===\n", c.name, c.load)
		fmt.Printf("%-10s %10s %10s %10s\n", "cycle", "PB", "OFAR", "OFAR-L")
		series := map[ofar.Routing]map[int64]float64{}
		for _, rt := range []ofar.Routing{ofar.PB, ofar.OFAR, ofar.OFARL} {
			// The pattern switches after 4000 cycles of warm-up.
			r, err := ofar.Experiment{H: h, Routing: string(rt), Pattern: c.from, Warmup: 4000,
				Transient: &ofar.Transient{After: c.to, Run: 3000, Drain: 4000, Bucket: 250}}.Resolve()
			if err != nil {
				log.Fatal(err)
			}
			res, err := r.Run(c.load, ofar.SweepOptions{})
			if err != nil {
				log.Fatal(err)
			}
			m := map[int64]float64{}
			for _, p := range res.Transient.Points {
				m[p.Cycle] = p.MeanLatency
			}
			series[rt] = m
		}
		for cyc := int64(-1000); cyc <= 3000; cyc += 250 {
			fmt.Printf("%-10d", cyc)
			for _, rt := range []ofar.Routing{ofar.PB, ofar.OFAR, ofar.OFARL} {
				if v, ok := series[rt][cyc]; ok {
					fmt.Printf("%10.1f", v)
				} else {
					fmt.Printf("%10s", "-")
				}
			}
			fmt.Println()
		}
	}
	fmt.Println("\ncycle 0 is the pattern switch; values are the average latency of")
	fmt.Println("packets *sent* in each 250-cycle bucket (the paper's Fig. 6 metric).")
}
