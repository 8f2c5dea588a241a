package network

import (
	"fmt"
	"slices"
	"strings"

	"ofar/internal/packet"
	"ofar/internal/topology"
)

// Fault injection. Faults are applied serially at the top of a window,
// before event delivery and before any router runs — the one point in the
// cycle that is identical across worker counts and window lengths, which is
// what keeps faulted runs bit-identical in every execution mode.
//
// Teardown contract (see docs/ARCHITECTURE.md):
//
//   - A dead link makes its output port(s) permanently Busy; nothing is ever
//     granted to it again. Packets already streaming across it complete their
//     traversal (their wheel events were scheduled at grant time).
//   - A dead router drops its buffered packets (except heads already
//     draining, whose phits are committed to the crossbar and complete),
//     drops packets that later arrive at it, and takes its nodes down with
//     it. Every drop increments Stats.Dropped, which joins Delivered in the
//     conservation identity.
//   - When a physical escape-ring router dies, the ring is re-formed over
//     the survivors (topology.ReformWithout): the predecessor's ring port is
//     retargeted at the successor with freshly derived credits, and stale
//     credit returns from the dead router are purged from the wheel. The
//     bubble condition is order-independent, so the shorter cycle keeps the
//     escape subnetwork deadlock-free.

// prepareFaults validates the schedule against the wired topology, orders it
// deterministically and allocates the liveness masks. Called from New.
func (n *Network) prepareFaults(faults []Fault) error {
	nPorts := n.Topo.RouterPorts
	if n.Cfg.Ring == RingPhysical {
		nPorts += n.Cfg.NumRings
	}
	for i, f := range faults {
		if f.Kind != FaultLink {
			continue
		}
		if f.Port >= nPorts {
			return fmt.Errorf("network: fault %d: port %d outside [0,%d)", i, f.Port, nPorts)
		}
		if f.Port < n.Topo.RouterPorts {
			kind, _, _ := n.Topo.Peer(f.Router, f.Port)
			if kind == topology.PortNone {
				return fmt.Errorf("network: fault %d: router %d port %d is unwired", i, f.Router, f.Port)
			}
			if kind == topology.PortNode {
				return fmt.Errorf("network: fault %d: node ports cannot fail individually", i)
			}
		}
	}
	n.faults = slices.Clone(faults)
	slices.SortStableFunc(n.faults, func(a, b Fault) int {
		switch {
		case a.Cycle != b.Cycle:
			return int(a.Cycle - b.Cycle)
		case a.Kind != b.Kind:
			return strings.Compare(string(a.Kind), string(b.Kind))
		case a.Router != b.Router:
			return a.Router - b.Router
		default:
			return a.Port - b.Port
		}
	})
	n.deadRouter = make([]bool, n.Topo.Routers)
	n.deadNode = make([]bool, n.Topo.Nodes)
	return nil
}

// applyDueFaults fires every fault whose cycle has come. Called at the top
// of each window, which never extends past the next fault.
func (n *Network) applyDueFaults(now int64) {
	for n.faultIdx < len(n.faults) && n.faults[n.faultIdx].Cycle <= now {
		f := n.faults[n.faultIdx]
		n.faultIdx++
		switch f.Kind {
		case FaultLink:
			n.failLink(f.Router, f.Port)
		case FaultRouter:
			n.failRouter(f.Router, now)
		}
		n.deriveLookahead()
	}
}

// failLink kills the link behind one output port. Canonical links are
// bidirectional: both directions die. Ring ports are unidirectional; only
// the named direction dies, and the affected ring is marked broken at that
// router so OFAR stops entering or continuing it there.
func (n *Network) failLink(r, port int) {
	rt := n.Routers[r]
	if rt.Out[port].Dead() {
		return
	}
	if port >= n.Topo.RouterPorts {
		// Physical ring port: ring j loses its r→next edge.
		rt.FailOutput(port)
		rt.FailRing(port - n.Topo.RouterPorts)
		return
	}
	rt.FailOutput(port)
	peer, peerPort := int(rt.Out[port].Peer), int(rt.Out[port].PeerPort)
	n.Routers[peer].FailOutput(peerPort)
	if n.Cfg.Ring == RingEmbedded {
		// An embedded ring riding the dead link is broken in that direction.
		for j, rg := range n.Rings {
			if rg.Pos(r) >= 0 && rg.EmbeddedPort(r) == port && rg.Next(r) == peer {
				n.Routers[r].FailRing(j)
			}
			if rg.Pos(peer) >= 0 && rg.EmbeddedPort(peer) == peerPort && rg.Next(peer) == r {
				n.Routers[peer].FailRing(j)
			}
		}
	}
}

// failRouter kills a whole router: re-forms every physical escape ring
// around it, kills all attached links (both directions), drops its buffered
// packets and pending source traffic, and marks its nodes dead.
func (n *Network) failRouter(w int, now int64) {
	if n.deadRouter[w] {
		return
	}
	n.deadRouter[w] = true

	// Escape-subnetwork surgery first: the splice reads the dying router's
	// ring state and the wheel's in-flight traffic before teardown.
	for j := range n.Rings {
		if n.Cfg.Ring == RingPhysical {
			n.spliceRing(j, w)
		} else if n.Cfg.Ring == RingEmbedded {
			if rg := n.Rings[j]; rg.Pos(w) >= 0 {
				prev := rg.Order[(rg.Pos(w)-1+len(rg.Order))%len(rg.Order)]
				n.Routers[prev].FailRing(j)
			}
		}
	}

	// Kill every attached link. Ring outputs are unidirectional (the input
	// side was handled by the splice); canonical links die in both
	// directions so no neighbor keeps routing into the dead router.
	rt := n.Routers[w]
	for port := n.Topo.LocalPortBase(); port < len(rt.Out); port++ {
		op := &rt.Out[port]
		switch op.Kind {
		case topology.PortLocal, topology.PortGlobal:
			if !op.Dead() {
				rt.FailOutput(port)
				n.Routers[op.Peer].FailOutput(int(op.PeerPort))
			}
		case topology.PortRing:
			rt.FailOutput(port)
			rt.FailRing(port - n.Topo.RouterPorts)
		}
	}

	// Buffered packets are lost (draining heads complete via their pending
	// wheel events; the dead-router refund suppression in handle keeps their
	// upstream credits frozen rather than stale).
	rt.DropBuffered(func(h packet.Handle) { n.dropPacket(h, now) })

	// The router's nodes die with it: pending source packets are dropped
	// and the sources stop generating.
	for slot := 0; slot < n.Topo.P; slot++ {
		node := n.Topo.NodeAt(w, slot)
		n.deadNode[node] = true
		pq := &n.pending[node]
		for pq.len() > 0 {
			n.dropPacket(pq.pop(), now)
		}
		n.gs[node/n.groupNodes].setPend(node%n.groupNodes, false)
	}
}

// spliceRing re-forms physical ring j around dead router w: the ring order
// drops w, and w's predecessor's ring port is retargeted at w's successor.
// The retargeted port's credits are re-derived from the successor's actual
// buffer state plus traffic still in flight to it; stale credit returns
// owed to the predecessor by the dead router are purged from the wheel
// (their buffer no longer exists). If the ring is too short to lose a
// router, the edge is simply broken — the ring degrades like a link fault.
func (n *Network) spliceRing(j, w int) {
	rg := n.Rings[j]
	if rg.Pos(w) < 0 {
		return // already spliced out by an earlier fault
	}
	ringPort := n.Topo.RouterPorts + j
	prev := rg.Order[(rg.Pos(w)-1+len(rg.Order))%len(rg.Order)]
	next := rg.Next(w)
	newRg, err := n.Topo.ReformWithout(rg, w)
	if err != nil || n.deadRouter[prev] {
		n.Routers[prev].FailOutput(ringPort)
		n.Routers[prev].FailRing(j)
		return
	}
	n.Rings[j] = newRg

	// Purge credit returns the dead router still owed its predecessor: the
	// buffer space they represent is gone, and the port's counters are about
	// to be re-derived against the successor's buffer.
	n.wheel.Filter(func(ev event) bool {
		return !(ev.kind == evCredit && int(ev.r) == prev && int(ev.port) == ringPort)
	})

	// Packets the dead router already launched at the successor still
	// occupy link bandwidth and will land in its buffer; they count against
	// the re-derived credits. (Only w could have sent on this port.)
	po := &n.Routers[prev].Out[ringPort]
	arriving := make([]int, po.NumVCs())
	n.wheel.ForEach(func(ev event) {
		if ev.kind == evArrive && int(ev.r) == next && int(ev.port) == ringPort {
			arriving[ev.vc]++
		}
	})

	// Retarget prev's ring port at next and rewire next's upstream credit
	// path. Future drains at next refund prev — consistent, because the
	// re-derived credits charge prev for everything in or bound for next's
	// buffer.
	po.Peer, po.PeerPort = int32(next), int16(ringPort)
	po.Latency = int32(n.Cfg.LocalLatency)
	if newRg.EdgeIsGlobal(prev) {
		po.Latency = int32(n.Cfg.GlobalLatency)
	}
	ni := &n.Routers[next].In[ringPort]
	ni.UpRouter, ni.UpPort = int32(prev), int16(ringPort)
	for vc := 0; vc < po.NumVCs(); vc++ {
		po.SetCredits(vc, po.VCCap(vc)-ni.VCs[vc].Len()-arriving[vc])
	}
	n.Routers[prev].NoteOutMutated(ringPort)
}

// dropPacket accounts one packet lost to a fault and returns it to the pool.
func (n *Network) dropPacket(h packet.Handle, now int64) {
	p := n.pkts.At(h)
	n.dropped(now, p.Src, p.Dst, p.Born, p.Job)
	n.poolG[p.SrcGroup].Free(h)
}

// dropped accounts one packet lost to a fault or to a dead destination: the
// Dropped counter, the affected-flow set, the job's drops (job -1: none),
// the determinism digest (tag 2, mirroring grants' tag 0 and deliveries'
// tag 1) and the observer learn about it.
func (n *Network) dropped(now int64, src, dst int32, born int64, job int32) {
	n.Stats.Dropped++
	n.settled = now
	n.Stats.NoteAffectedFlow(int(src), int(dst))
	n.Stats.JobDropped(int(job))
	if n.digestOn {
		n.digest.fold(2, now, int64(src), int64(dst), born)
	}
	if n.obs != nil {
		n.obs.drop(now, src, dst, born)
	}
}

// GlobalLinkFaults builds a schedule killing the first `count` global links
// (lowest router, then lowest port, each link once) at the given cycle —
// the degradation experiment's workload. The topology is derived from cfg
// without building a network.
func GlobalLinkFaults(cfg Config, cycle int64, count int) ([]Fault, error) {
	topo, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
	if err != nil {
		return nil, err
	}
	base := topo.GlobalPortBase()
	faults := make([]Fault, 0, count)
	for r := 0; r < topo.Routers && len(faults) < count; r++ {
		for k := 0; k < topo.H && len(faults) < count; k++ {
			kind, peer, _ := topo.Peer(r, base+k)
			if kind != topology.PortGlobal || peer < r {
				continue // unwired, or the link was already taken from its lower end
			}
			faults = append(faults, Fault{Cycle: cycle, Kind: FaultLink, Router: r, Port: base + k})
		}
	}
	if len(faults) < count {
		return nil, fmt.Errorf("network: only %d global links exist (requested %d)", len(faults), count)
	}
	return faults, nil
}

// DeadRouters returns how many routers the schedule has killed so far.
func (n *Network) DeadRouters() int {
	total := 0
	for _, d := range n.deadRouter {
		if d {
			total++
		}
	}
	return total
}

// FaultsApplied returns how many scheduled faults have fired.
func (n *Network) FaultsApplied() int { return n.faultIdx }
