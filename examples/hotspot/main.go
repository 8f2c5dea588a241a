// Hotspot: visualizes the paper's §III motivation. Under ADV+h traffic with
// Valiant routing, all misrouted flow entering a router of an intermediate
// group must leave through the single local link to the next router
// (Fig. 2a): a handful of local links run near 100% utilization while the
// rest idle. OFAR's in-transit local misrouting spreads that load.
package main

import (
	"fmt"
	"log"
	"sort"

	"ofar"
	"ofar/internal/traffic"
)

func main() {
	const h = 3
	for _, rt := range []ofar.Routing{ofar.VAL, ofar.OFAR} {
		cfg := ofar.DefaultConfig(h).WithRouting(rt)
		sim, err := ofar.NewSimulator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		n := sim.Network()
		d := n.Topo
		n.Stats.EnableUtilization(d.Routers, d.RouterPorts+2)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(d, h), 1.0, cfg.PacketSize))
		n.Run(8000)
		cycles := float64(n.Now())

		// Collect local-link utilizations of one intermediate group.
		type link struct {
			from, to int
			util     float64
		}
		var links []link
		g := 1 // any group acts as an intermediate under ADV
		for rl := 0; rl < d.A; rl++ {
			r := d.RouterAt(g, rl)
			for port := d.LocalPortBase(); port < d.GlobalPortBase(); port++ {
				_, peer, _ := d.Peer(r, port)
				links = append(links, link{
					from: rl, to: d.LocalIndex(peer),
					util: float64(n.Stats.Utilization(r, port)) / cycles,
				})
			}
		}
		sort.Slice(links, func(i, j int) bool { return links[i].util > links[j].util })

		var sum float64
		for _, l := range links {
			sum += l.util
		}
		fmt.Printf("\n=== %s under ADV+%d at saturation (group %d local links) ===\n", rt, h, g)
		fmt.Printf("throughput: %.3f phits/(node·cycle); mean local utilization %.2f\n",
			float64(n.Stats.Delivered)*float64(cfg.PacketSize)/cycles/float64(d.Nodes),
			sum/float64(len(links)))
		fmt.Println("hottest local links:")
		for _, l := range links[:6] {
			bar := ""
			for i := 0; i < int(l.util*40); i++ {
				bar += "#"
			}
			fmt.Printf("  r%-2d -> r%-2d  %5.1f%%  %s\n", l.from, l.to, 100*l.util, bar)
		}
		fmt.Println("coldest local links:")
		for _, l := range links[len(links)-3:] {
			fmt.Printf("  r%-2d -> r%-2d  %5.1f%%\n", l.from, l.to, 100*l.util)
		}
	}
	fmt.Println("\nVAL shows a few near-saturated links feeding the (k → k+1) funnels;")
	fmt.Println("OFAR levels the distribution and converts the headroom into throughput.")
}
