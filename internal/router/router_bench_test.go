package router

import (
	"testing"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// BenchmarkCycleIdle measures Cycle on a router with no routable head: the
// readyVCs test and return on its first line, which the network pays for
// every router every cycle (it walks them all).
func BenchmarkCycleIdle(b *testing.B) {
	r := benchRouter(b, 25, 3)
	eng := scriptEngine{route: func(*Router, InCtx, *packet.Packet, int64) (Request, bool) {
		return Request{}, false
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cycle(eng, int64(i))
	}
}

// BenchmarkCycleLoaded measures a fully loaded router: every input VC has a
// head packet requesting an output.
func BenchmarkCycleLoaded(b *testing.B) {
	r := benchRouter(b, 25, 3)
	var pool packet.Pool
	for ip := range r.In {
		for vc := range r.In[ip].VCs {
			h, _ := get(r, &pool)
			r.Arrive(ip, vc, h)
		}
	}
	eng := scriptEngine{route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
		return Request{Out: uint8((in.Port + 1) % len(rt.Out)), VC: 0}, true
	}}
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		r.Cycle(eng, now)
		now += 8 // ports free again after one packet time
		// Recycle drained packets and credits so the router stays loaded.
		for ip := range r.In {
			for vc := range r.In[ip].VCs {
				buf := &r.In[ip].VCs[vc]
				if buf.Draining() {
					h, _, _ := r.FinishDrain(ip, vc)
					r.Arrive(ip, vc, h) // requeue at the tail
				}
			}
		}
		for op := range r.Out {
			for vc := 0; vc < r.Out[op].NumVCs(); vc++ {
				r.Out[op].SetCredits(vc, r.Out[op].VCCap(vc))
			}
		}
	}
}

func benchRouter(b *testing.B, ports, vcs int) *Router {
	b.Helper()
	d, err := topoForBench()
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]int, vcs)
	rings := make([]int, vcs)
	for i := range caps {
		caps[i] = 8
		rings[i] = -1
	}
	specs := make([]PortSpec, ports)
	for i := range specs {
		specs[i] = PortSpec{
			Kind: topology.PortLocal, Peer: 1, PeerPort: 0, UpRouter: 1, UpPort: 0,
			Latency: 10, InCaps: caps, InRing: rings, OutCaps: caps, OutRing: rings,
		}
	}
	return New(Params{ID: 0, Topo: d, PktSize: 8, AllocIters: 3, RNG: benchRNG(), Ports: specs})
}

func topoForBench() (*topology.Dragonfly, error) { return topology.New(1, 2, 1, 0) }

func benchRNG() *simcore.RNG { return simcore.NewRNG(5) }
