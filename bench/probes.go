package main

import (
	"time"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/stats"
	"ofar/internal/topology"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// runProbes times direct calls into the small layers every workload stands on
// — simcore, traffic, topology, packet, stats — with fixed synthetic inputs.
// They do not depend on the workload; every traced run carries them so a
// per-layer number can be read next to the workload it is predicted to move.
func runProbes(ctx *runCtx, o *outcome) {
	tr, l := ctx.tr, o.layer
	scale := 1
	if ctx.quick {
		scale = 20
	}
	op := tr.newOp()
	probe := func(layer, name string, count int, f func()) float64 {
		s := tr.begin(op, rootSpan, layer, "probe."+name)
		t := time.Now()
		f()
		ns := float64(time.Since(t).Nanoseconds())
		tr.end(s, int64(count))
		return ns / float64(count)
	}

	// simcore: a wheel fed 4,000 events per cycle at the engine's delays
	// (router pipeline 1, packet time 8, local link 10, global link 100).
	{
		const perCycle = 4000
		cycles := 400 / scale
		delays := [4]int{1, 8, 10, 100}
		w := simcore.NewWheel[int](128)
		var schedNS, advNS int64
		var events int
		s := tr.begin(op, rootSpan, "simcore", "probe.wheel")
		for c := 0; c < cycles; c++ {
			t0 := time.Now()
			for i := 0; i < perCycle; i++ {
				w.Schedule(delays[i&3], i)
			}
			t1 := time.Now()
			due := w.Advance()
			advNS += time.Since(t1).Nanoseconds()
			schedNS += t1.Sub(t0).Nanoseconds()
			events += len(due)
		}
		tr.end(s, int64(cycles*perCycle))
		l["simcore.wheel.schedule_ns"] = float64(schedNS) / float64(cycles*perCycle)
		l["simcore.wheel.advance_ns_per_ev"] = float64(advNS) / float64(max(events, 1))
	}
	{
		rng, n := simcore.NewRNG(ctx.seed), 4_000_000/scale
		l["simcore.rng.bernoulli_ns"] = probe("simcore", "rng", n, func() {
			for i := 0; i < n; i++ {
				if rng.Bernoulli(0.05) {
					sink++
				}
			}
		})
	}
	{
		n := 2_000_000 / scale
		var e simcore.Enc
		encNS := probe("simcore", "codec.enc", n, func() {
			for i := 0; i < n; i++ {
				e.U64(uint64(i))
				e.U32(uint32(i))
				e.U16(uint16(i))
				e.U8(uint8(i))
				e.Bool(i&1 == 0)
			}
		})
		data := e.Data()
		decNS := probe("simcore", "codec.dec", n, func() {
			d := simcore.NewDec(data)
			for i := 0; i < n; i++ {
				sink += int(d.U64()) + int(d.U32()) + int(d.U16()) + int(d.U8())
				if d.Bool() {
					sink++
				}
			}
		})
		perItem := float64(len(data)) / float64(n) // bytes
		l["simcore.codec.enc_mb_s"] = perItem / encNS * 1e9 / (1 << 20)
		l["simcore.codec.dec_mb_s"] = perItem / decNS * 1e9 / (1 << 20)
	}

	// topology: the paper-scale instance, and minimal routing over a fixed walk.
	var d *topology.Dragonfly
	{
		var newMS []float64
		for i := 0; i < 5; i++ {
			newMS = append(newMS, probe("topology", "new_h6", 1, func() {
				d, _ = topology.NewBalanced(6)
				rings, _ := d.HamiltonianRings(1)
				sink += len(rings)
			})/1e6)
		}
		l["topology.new_h6_ms"] = median(newMS)
		n := 4_000_000 / scale
		l["topology.minimal_port_ns"] = probe("topology", "minimal_port", n, func() {
			r, dst := 0, 1
			for i := 0; i < n; i++ {
				sink += d.MinimalPort(r, dst)
				r, dst = (r+7)%d.Routers, (dst+131)%d.Nodes
			}
		})
	}

	// traffic: Generator.Next over all 5,256 nodes of the h=6 topology.
	{
		cycles := 200 / scale
		const pkt = 8
		un, adv := traffic.NewUniform(d), traffic.NewAdv(d, 6)
		next := func(name string, g traffic.Generator) float64 {
			rng := simcore.NewRNG(ctx.seed)
			return probe("traffic", name, cycles*d.Nodes, func() {
				for c := 0; c < cycles; c++ {
					for node := 0; node < d.Nodes; node++ {
						if dst, ok := g.Next(rng, node, int64(c)); ok {
							sink += dst
						}
					}
				}
			})
		}
		l["traffic.bernoulli_un.next_ns"] = next("bernoulli_un", traffic.NewBernoulli(un, 0.05, pkt))
		l["traffic.bernoulli_adv.next_ns"] = next("bernoulli_adv", traffic.NewBernoulli(adv, 0.5, pkt))
		if js, err := traffic.NewJobSet(d, traffic.JobSetConfig{
			Jobs: []traffic.JobSpec{
				{Kind: traffic.JobAll2All, Nodes: 2048, Load: 0.3},
				{Kind: traffic.JobRing, Nodes: 1024, Load: 0.3},
				{Kind: traffic.JobParamServer, Nodes: 512, Load: 0.1},
			},
			Background: 0.05, Seed: ctx.seed, PacketSize: pkt,
		}); err == nil {
			l["traffic.jobset.next_ns"] = next("jobset", js)
		}
		l["traffic.burst.next_ns"] = next("burst", traffic.NewBurst(un, cycles/2+1, d.Nodes))
		// A trace of what a uniform Bernoulli source at load 0.4 generates.
		var recs []trace.Record
		rng, src := simcore.NewRNG(ctx.seed), traffic.NewBernoulli(un, 0.4, pkt)
		for c := 0; c < cycles; c++ {
			for node := 0; node < d.Nodes; node++ {
				if dst, ok := src.Next(rng, node, int64(c)); ok {
					recs = append(recs, trace.Record{Cycle: int64(c), Src: int32(node), Dst: int32(dst), Size: pkt})
				}
			}
		}
		if rp, err := traffic.NewTraceReplay(recs, d.Nodes); err == nil {
			l["traffic.replay.next_ns"] = next("replay", rp)
		}
	}

	// packet and stats.
	{
		n := 4_000_000 / scale
		var pool packet.Pool
		l["packet.pool.getput_ns"] = probe("packet", "pool", n, func() {
			for i := 0; i < n; i++ {
				a, b := pool.Get(), pool.Get()
				pool.Put(a)
				pool.Put(b)
			}
		}) / 2
		run := stats.NewRun(d.Nodes, 8)
		run.EnableHistogram()
		run.StartMeasurement(0)
		l["stats.ondeliver_ns"] = probe("stats", "ondeliver", n, func() {
			for i := 0; i < n; i++ {
				born := int64(i)
				run.OnDeliver(born, born+int64(i&15), born+100+int64(i&1023), 3+i&3, 0)
			}
		})
		q := 20_000 / scale
		l["stats.quantile_us"] = probe("stats", "quantile", q, func() {
			for i := 0; i < q; i++ {
				sink += int(run.LatencyQuantile(0.5 + float64(i&255)/512))
			}
		}) / 1e3
	}
}
