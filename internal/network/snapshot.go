package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/traffic"
)

// Warm-state checkpointing. Snapshot serializes the entire simulation —
// RNG streams, per-VC buffers and credits, the event wheel, arbiter LRS
// memories, escape-ring wiring (including post-splice surgery), fault
// cursor and liveness masks, grant digest/log, generator progress and all
// statistics — into a versioned binary image. Restore rebuilds exactly that
// state inside a network constructed from the same configuration, and a
// restored run is bit-identical to one that was never interrupted (see
// TestSnapshotDifferential). Fork round-trips through an in-memory snapshot
// to clone warm state into a fully independent network.
//
// What is deliberately NOT serialized:
//
//   - The route cache: pure memoization, recomputable from serialized state.
//     Restore brings every router up cache-cold; cache-on and cache-off
//     trajectories are bit-identical, so resuming cold from a warm snapshot
//     continues the exact same run.
//   - The worker pool: wall-clock machinery, rebuilt from the restoring
//     network's own configuration. The snapshot config is compared after
//     normalizing the execution fields away, so a snapshot taken at Workers=4
//     restores into a Workers=1 network (and any other combination) with
//     identical results.
//
// The header carries the engine's golden-trace digest (EngineDigest): a
// snapshot written by a build with different simulation physics fails fast
// at Restore instead of silently resuming a divergent run.

const (
	snapMagic = "OFARSNAP"

	// SnapshotVersion identifies the payload layout. Any change to the
	// State walks (state below and the walks it calls) must bump it; Restore
	// rejects other versions.
	// Version 2 added the packet Job tag and the per-job statistics section.
	// Version 3 replaced the single traffic RNG state with one state per
	// dragonfly group (the sharded injection front-end's per-group streams).
	// Version 4 stores integers as varints, packet IDs as deltas and packet
	// references as positions in the packet table.
	// Version 5 stores each LRS arbiter as a row of byte ranks instead of
	// last-grant timestamps.
	SnapshotVersion = 5

	maxSnapCfgJSON = 1 << 20
	maxSnapPackets = 1 << 26
	maxSnapEvents  = 1 << 26
	maxSnapGenName = 1 << 12
	maxSnapQueue   = 1 << 24
)

var (
	engineDigestOnce sync.Once
	engineDigestVal  uint64
)

// EngineDigest returns the grant digest of one small canonical run — a fixed
// h=2 dragonfly under uniform Bernoulli traffic with one scheduled router
// fault — computed once per process. It acts as a physics fingerprint: any
// change to routing, allocation, timing or fault semantics moves it, which is
// what lets Restore refuse snapshots written by a behaviorally different
// build. It is NOT a build or version string; two builds that simulate
// identically interchange snapshots freely.
func EngineDigest() uint64 {
	engineDigestOnce.Do(func() {
		cfg := DefaultConfig(2)
		cfg.Seed = 12345
		cfg.Faults = []Fault{{Cycle: 200, Kind: FaultRouter, Router: 3}}
		net, err := New(cfg)
		if err != nil {
			panic(fmt.Sprintf("network: engine digest config invalid: %v", err))
		}
		net.EnableGrantDigest()
		net.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(net.Topo), 0.5, cfg.PacketSize))
		net.Run(400)
		engineDigestVal, _ = net.GrantDigest()
	})
	return engineDigestVal
}

// normalizeConfig zeroes the fields that change wall-clock execution but not
// simulated physics, so snapshots restore across worker counts and
// route-cache settings (proven bit-identical elsewhere), and the two ignored
// fields kept for bench/. Everything else — topology, buffering, routing,
// faults, seed — must match exactly.
func normalizeConfig(c Config) Config {
	c.Workers = 0
	c.ShardByGroup = false
	c.DisableActivitySched = false
	c.DisableRouteCache = false
	return c
}

// SnapshotConfigJSON returns the canonical JSON identity of a configuration
// as embedded in snapshot headers: wall-clock-only execution fields are
// normalized away, so two configs that restore each other's snapshots hash
// identically. Warm-state caches key their entries on this.
func SnapshotConfigJSON(c Config) ([]byte, error) {
	return json.Marshal(normalizeConfig(c))
}

// Snapshot writes the network's full simulation state to w. The image is
// deterministic: the same state always produces the same bytes. It is
// encoded once, header and payload in one buffer — w's own spare capacity
// when w is a *bytes.Buffer — and written in one Write.
func (n *Network) Snapshot(w io.Writer) error {
	cfgJSON, err := json.Marshal(normalizeConfig(n.Cfg))
	if err != nil {
		return fmt.Errorf("network: snapshot config: %w", err)
	}
	var tab packet.Refs
	tab.Index(&n.pkts, n.forEachPacket)
	hdr := len(snapMagic) + 5*8 + len(cfgJSON) // version, digest, config length, checksum, payload length
	err = simcore.WriteImage(w, hdr+n.imageSize(&tab), func(e *simcore.Enc) {
		e.Raw([]byte(snapMagic))
		e.U64(SnapshotVersion)
		e.U64(EngineDigest())
		e.Bytes(cfgJSON)
		e.Sealed(func() { n.state(simcore.Encoder(e), &tab) }) // checksum, length, payload
	})
	if err != nil {
		return fmt.Errorf("network: snapshot write: %w", err)
	}
	return nil
}

// Restore overwrites this network's simulation state from a snapshot written
// by Snapshot. The network must have been built from the same configuration
// (modulo the normalized wall-clock fields) by the same simulation physics
// (EngineDigest), and the same traffic source must be attached when the
// snapshot carries generator state. Corrupt or truncated input is detected
// (checksum before any mutation, bounds checks after) and returns an error —
// never a panic. If Restore returns an error after the checksum passed, the
// network's state is unspecified: discard it. A *bytes.Reader or
// *bytes.Buffer is decoded where its bytes lie (simcore.ReadImage); any
// other reader is read whole first.
func (n *Network) Restore(r io.Reader) error {
	return simcore.ReadImage(r, n.restore)
}

// restore decodes one whole image; nothing it keeps aliases raw.
func (n *Network) restore(raw []byte) error {
	d := simcore.NewDec(raw)
	magic := d.Raw(len(snapMagic))
	if d.Err() == nil && string(magic) != snapMagic {
		return fmt.Errorf("network: not a snapshot (bad magic)")
	}
	if v := d.U64(); d.Err() == nil && v != SnapshotVersion {
		return fmt.Errorf("network: snapshot format version %d, this build reads %d", v, SnapshotVersion)
	}
	if dg := d.U64(); d.Err() == nil && dg != EngineDigest() {
		return fmt.Errorf("network: snapshot engine digest %016x != this build's %016x — the simulator's physics changed; re-run instead of restoring", dg, EngineDigest())
	}
	cfgJSON := d.Bytes(maxSnapCfgJSON)
	if d.Err() == nil {
		want, err := json.Marshal(normalizeConfig(n.Cfg))
		if err != nil {
			return fmt.Errorf("network: restore config: %w", err)
		}
		if !bytes.Equal(cfgJSON, want) {
			return fmt.Errorf("network: snapshot was taken with a different configuration")
		}
	}
	sum := d.U64()
	payload := d.Bytes(len(raw))
	if err := d.Err(); err != nil {
		return fmt.Errorf("network: restore: %w", err)
	}
	if simcore.Checksum64(payload) != sum {
		return fmt.Errorf("network: snapshot payload checksum mismatch (corrupt or truncated)")
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("network: %d trailing bytes after snapshot", d.Remaining())
	}
	if err := n.state(simcore.Decoder(simcore.NewDec(payload)), &n.tab); err != nil {
		return fmt.Errorf("network: restore: %w", err)
	}
	return nil
}

// Fork clones the warm simulation state into a fresh, fully independent
// network: its own routers, buffers, event wheel, RNG streams positioned
// identically, and (when configured) its own worker pool. The clone and the
// original can be stepped independently without sharing any mutable state.
// The state travels as a bare snapshot payload: the header's identity checks
// (format, physics, configuration, checksum) have nothing to catch inside
// one process.
// Stateless traffic sources are shared (their Next reads only immutable
// pattern state); stateful ones must implement traffic.CloneableGenerator.
// Networks with Workers > 1 own goroutines: Close the fork when done.
func (n *Network) Fork() (*Network, error) {
	payload := n.encode()
	m, err := New(n.Cfg)
	if err != nil {
		return nil, fmt.Errorf("network: fork rebuild: %w", err)
	}
	switch g := n.gen.(type) {
	case traffic.CloneableGenerator:
		m.SetGenerator(g.CloneGenerator())
	case traffic.StatefulGenerator:
		m.Close()
		return nil, fmt.Errorf("network: fork: generator %q is stateful but not cloneable", g.Name())
	case nil:
	default:
		m.SetGenerator(n.gen)
	}
	if err := m.state(simcore.Decoder(simcore.NewDec(payload)), &m.tab); err != nil {
		m.Close()
		return nil, fmt.Errorf("network: fork: %w", err)
	}
	return m, nil
}

// groupBoards returns the PB flag board of every group, in group order (nil
// when the mechanism does not piggyback). Boards are shared per group, so the
// snapshot serializes each exactly once.
func (n *Network) groupBoards() []*router.FlagBoard {
	if !n.usePB {
		return nil
	}
	boards := make([]*router.FlagBoard, n.Topo.G)
	for _, r := range n.Routers {
		if g := n.Topo.GroupOf(r.ID); boards[g] == nil {
			boards[g] = r.Board()
		}
	}
	return boards
}

// forEachPacket visits every reference the simulation state holds to a
// packet — router buffers, source queues, in-flight arrivals. A draining
// packet is visited twice: by its buffer and by its arrival event.
func (n *Network) forEachPacket(f func(packet.Handle)) {
	for _, r := range n.Routers {
		r.ForEachPacket(f)
	}
	for i := range n.pending {
		pq := &n.pending[i]
		for _, h := range pq.q[pq.head:] {
			f(h)
		}
	}
	n.wheel.ForEach(func(ev event) {
		if ev.kind == evArrive {
			f(ev.pkt)
		}
	})
}

// encode returns the snapshot payload: the state walk, encoding. Buffers,
// queues and events store packets as positions in the packet table: a
// committed packet can be referenced twice — by the draining buffer that
// still holds it and by its in-flight arrival event — and must decode to one
// packet.
func (n *Network) encode() []byte {
	var e simcore.Enc
	var tab packet.Refs
	tab.Index(&n.pkts, n.forEachPacket)
	e.Grow(n.imageSize(&tab))
	n.state(simcore.Encoder(&e), &tab) // encoding never fails
	return e.Data()
}

// state is the snapshot payload, walked in one fixed order: Snapshot and Fork
// encode it, Restore and Fork decode it. tab is the packet table: encoding
// reads it, decoding empties and refills it. Decoding validates every index
// against this network and rebuilds the derived state; on an error the
// network's state is unspecified.
func (n *Network) state(c *simcore.Codec, tab *packet.Refs) error {
	dec := c.Decoding()

	simcore.Int(c, &n.now)
	simcore.Int(c, &n.inFlight)
	simcore.Int(c, &n.CongestionStalls)
	simcore.Int(c, &n.faultIdx)
	if dec && (n.now < 0 || n.faultIdx < 0 || n.faultIdx > len(n.faults)) {
		c.Fail("cycle %d, fault cursor %d outside [0,%d]", n.now, n.faultIdx, len(n.faults))
	}
	masks := n.deadRouter != nil
	c.Bool(&masks)
	if dec && masks != (n.deadRouter != nil) {
		c.Fail("fault liveness masks present=%v, network configured=%v", masks, n.deadRouter != nil)
	}
	if err := c.Err(); err != nil {
		return err
	}
	for i := range n.deadRouter {
		c.Bool(&n.deadRouter[i])
	}
	for i := range n.deadNode {
		c.Bool(&n.deadNode[i])
	}
	for _, rng := range n.trafficRNG {
		c.RNG(rng)
	}
	outstanding := n.pool.Outstanding()
	c.U64(&outstanding)
	if dec {
		n.pool.SetOutstanding(outstanding)
	}

	c.Bool(&n.digestOn)
	c.U64(&n.digest.sum)
	simcore.Int(c, &n.digest.count)
	// The slots of a test grant log the image once carried: a zero cap and
	// no events.
	c.Shape(0, "grant log cap")
	c.Shape(0, "grant log events")

	hasGen := n.gen != nil
	c.Bool(&hasGen)
	if hasGen {
		var name string
		if n.gen != nil {
			name = n.gen.Name()
		}
		sg, stateful := n.gen.(traffic.StatefulGenerator)
		ours, oursStateful := name, stateful
		c.String(&name, maxSnapGenName)
		c.Bool(&stateful)
		// A stateless source has nothing to restore. The caller is
		// responsible for attaching an equivalent generator (its draws come
		// from trafficRNG, which is serialized, so an identical source
		// reproduces the run).
		if stateful {
			if dec && c.Err() == nil && (!oursStateful || name != ours) {
				c.Fail("snapshot carries state for generator %q; attach the same generator before Restore", name)
			}
			if err := c.Err(); err != nil {
				return err
			}
			if err := sg.State(c); err != nil {
				return err
			}
		}
	}

	if err := n.Stats.State(c); err != nil {
		return err
	}
	if dec {
		widest := 0
		for _, r := range n.Routers {
			widest = max(widest, len(r.Out))
		}
		if !n.Stats.UtilizationFits(len(n.Routers), widest) {
			c.Fail("utilization counters do not cover %d routers of %d ports", len(n.Routers), widest)
			return c.Err()
		}
	}

	// Bound the block by the input, not by a header field.
	np := c.Records(tab.Len(), maxSnapPackets, snapPacketMin)
	if dec {
		if err := c.Err(); err != nil {
			return err
		}
		// Every group's pool forgets the outgoing packets and takes the
		// image's densely, in image order, into the blocks it already has.
		tab.Reset(np)
		for g := range n.poolG {
			n.poolG[g].Reset()
		}
	}
	var in packet.Packet
	var prev packet.ID
	for i := range np {
		p := &in
		if !dec {
			p = n.pkts.At(tab.At(i))
		}
		if n.packetState(c, p, prev); dec {
			if err := c.Err(); err != nil {
				return err
			}
			h := n.poolG[p.SrcGroup].Alloc()
			*n.pkts.At(h) = *p
			tab.Add(h)
		}
		prev = p.ID
	}

	c.Shape(len(n.pending), "pending queues")
	for node := range n.pending {
		pq := &n.pending[node]
		cnt := c.Len(pq.len(), maxSnapQueue)
		if dec {
			pq.q, pq.head = pq.q[:0], 0
		}
		for j := range cnt {
			var h packet.Handle
			if !dec {
				h = pq.q[pq.head+j]
			}
			if tab.Ref(c, &h); dec && c.Err() == nil {
				pq.q = append(pq.q, h)
			}
		}
		if dec {
			n.gs[node/n.groupNodes].setPend(node%n.groupNodes, cnt > 0)
		}
	}

	c.Shape(len(n.Rings), "rings")
	for _, rg := range n.Rings {
		if err := rg.State(c); err != nil {
			return err
		}
	}

	for _, r := range n.Routers {
		if err := r.State(c, tab, n.now); err != nil {
			return err
		}
	}
	if dec {
		if err := n.checkWiring(c); err != nil {
			return err
		}
	}

	for _, b := range n.groupBoards() {
		if err := b.State(c); err != nil {
			return err
		}
	}

	nEv := c.Len(n.wheel.Pending(), maxSnapEvents)
	if !dec {
		n.wheel.ForEachDelay(func(delay int, ev event) { n.eventState(c, &delay, &ev, tab) })
		return nil
	}
	// The wheel is emptied and refilled in place: its buckets keep the
	// capacity they grew, so the window after a Restore does not re-grow them.
	n.wheel.Reset()
	for range nEv {
		var delay int
		var ev event
		if err := n.eventState(c, &delay, &ev, tab); err != nil {
			return err
		}
		n.wheel.Schedule(delay, ev)
	}
	if c.Err() == nil && c.Remaining() != 0 {
		c.Fail("%d trailing payload bytes", c.Remaining())
	}
	n.deriveLookahead()
	return c.Err()
}

// checkWiring fails c unless every restored link names a router and port
// the network has, or is unwired (-1, -1): the windows index routers and
// ports by these fields.
func (n *Network) checkWiring(c *simcore.Codec) error {
	fits := func(r, port int, in bool) bool {
		if r < 0 || r >= len(n.Routers) {
			return r == -1 && port == -1
		}
		ports := len(n.Routers[r].Out)
		if in {
			ports = len(n.Routers[r].In)
		}
		return port >= 0 && port < ports
	}
	for _, r := range n.Routers {
		for i, op := range r.Out {
			if !fits(int(op.Peer), int(op.PeerPort), true) {
				c.Fail("router %d output %d wired to router %d input %d", r.ID, i, op.Peer, op.PeerPort)
			}
		}
		for i, ip := range r.In {
			if !fits(int(ip.UpRouter), int(ip.UpPort), false) {
				c.Fail("router %d input %d fed from router %d output %d", r.ID, i, ip.UpRouter, ip.UpPort)
			}
		}
	}
	return c.Err()
}

// eventState visits one wheel event due delay cycles from now; an arrival
// carries its packet as a reference into tab. Decoding validates every index
// against this network (the cases run in order, so each may index by the
// ones before).
func (n *Network) eventState(c *simcore.Codec, delay *int, ev *event, tab *packet.Refs) error {
	simcore.Int(c, delay)
	c.U8((*uint8)(&ev.kind))
	simcore.Int(c, &ev.r)
	simcore.Int(c, &ev.port)
	simcore.Int(c, &ev.vc)
	phits := 0 // the image keeps the slot events no longer carry
	if ev.kind == evCredit {
		phits = n.Cfg.PacketSize
	}
	c.Shape(phits, "event phits")
	if c.Decoding() && c.Err() == nil {
		switch r, port := int(ev.r), int(ev.port); {
		case *delay < 0 || *delay > n.wheel.Horizon():
			c.Fail("event delay %d outside wheel horizon %d", *delay, n.wheel.Horizon())
		case ev.kind > evCredit:
			c.Fail("unknown event kind %d", ev.kind)
		case r < 0 || r >= len(n.Routers):
			c.Fail("event router %d out of range", r)
		case port < 0 || port >= len(n.Routers[r].In):
			c.Fail("event port %d out of range on router %d", port, r)
		case ev.vc < 0 || ev.kind != evCredit && int(ev.vc) >= len(n.Routers[r].In[port].VCs) ||
			ev.kind == evCredit && int(ev.vc) >= n.Routers[r].Out[port].NumVCs():
			c.Fail("event vc %d out of range on router %d port %d", ev.vc, r, port)
		}
	}
	if ev.kind == evArrive && c.Err() == nil {
		tab.Ref(c, &ev.pkt)
	}
	return c.Err()
}

// snapPacketMin is the smallest packet record, 19 one-byte varints and 3
// flag bytes. Decoding bounds the packet count by it before it allocates.
const snapPacketMin = 19 + 3

// imageSize estimates the payload from a probe: router 0 for every router,
// the newest packet's record for every packet and a reference to it for
// every queued injection, an arrival at the wheel's horizon for every event,
// and 64 KB for the rest (statistics). A miss only means append grows the
// buffer.
func (n *Network) imageSize(tab *packet.Refs) int {
	var e simcore.Enc
	c, size := simcore.Encoder(&e), len(n.pending)+64<<10
	probe := func(count int, visit func()) {
		at := len(e.Data())
		visit()
		size += count * (len(e.Data()) - at)
	}
	probe(len(n.Routers)*21/20, func() { n.Routers[0].State(c, tab, n.now) })
	ev, delay := event{kind: evCredit, r: int32(len(n.Routers) - 1)}, n.wheel.Horizon()
	if np := tab.Len(); np > 0 {
		ev.kind, ev.pkt = evArrive, tab.At(np-1)
		p := n.pkts.At(ev.pkt)
		probe(np, func() { n.packetState(c, p, p.ID-1) })
		probe(n.PendingPackets(), func() { tab.Ref(c, &ev.pkt) })
	}
	probe(n.wheel.Pending(), func() { n.eventState(c, &delay, &ev, tab) })
	return size
}

// packetState visits one packet record, its ID as the delta from prev, the
// record's before it in the table. Decoding validates its fields against
// this network's topology, and its ID against prev and the pool's
// handed-out IDs (restored before the table). The second slot holds the
// network's packet size, which packets no longer carry, and the last a
// retired delivery stamp. The local-misroute, on-ring and total-hop slots
// are derived from the fields that carry each fact (MisrouteGroup >= 0,
// Ring >= 0, Hops), and decoding refuses a value that disagrees.
func (n *Network) packetState(c *simcore.Codec, p *packet.Packet, prev packet.ID) {
	delta := uint64(p.ID - prev)
	c.Uvarint(&delta)
	if c.Decoding() {
		p.ID = prev + packet.ID(delta)
	}
	localMis, onRing, hops := p.MisrouteGroup >= 0, p.Ring >= 0, int32(p.Hops())
	c.Shape(n.Cfg.PacketSize, "packet size")
	simcore.Int(c, &p.Dst)
	simcore.Int(c, &p.SrcGroup)
	simcore.Int(c, &p.DstGroup)
	simcore.Int(c, &p.ValiantGroup)
	simcore.Int(c, &p.BlockedSince)
	c.Bool(&p.GlobalMisrouted)
	c.Bool(&localMis)
	c.Bool(&onRing)
	simcore.Int(c, &p.Ring)
	simcore.Int(c, &p.LocalHops)
	simcore.Int(c, &p.GlobalHops)
	simcore.Int(c, &p.Src)
	simcore.Int(c, &p.MisrouteGroup)
	simcore.Int(c, &hops)
	simcore.Int(c, &p.RingExits)
	simcore.Int(c, &p.RingHops)
	simcore.Int(c, &p.Job)
	simcore.Int(c, &p.Born)
	simcore.Int(c, &p.Injected)
	c.Shape(0, "packet delivery stamp")
	if !c.Decoding() || c.Err() != nil {
		return
	}
	switch id := p.ID; {
	case id <= prev || uint64(id) > n.pool.Outstanding():
		c.Fail("packet ID %d outside (%d,%d]: out of order or never handed out", id, prev, n.pool.Outstanding())
	case p.Src < 0 || int(p.Src) >= n.Topo.Nodes || p.Dst < 0 || int(p.Dst) >= n.Topo.Nodes:
		c.Fail("packet %d endpoints %d→%d outside [0,%d)", id, p.Src, p.Dst, n.Topo.Nodes)
	case p.SrcGroup < 0 || int(p.SrcGroup) >= n.Topo.G || p.DstGroup < 0 || int(p.DstGroup) >= n.Topo.G:
		c.Fail("packet %d group fields out of range", id)
	case p.ValiantGroup < -1 || int(p.ValiantGroup) >= n.Topo.G || p.MisrouteGroup < -1 || int(p.MisrouteGroup) >= n.Topo.G:
		c.Fail("packet %d intermediate-group fields out of range", id)
	case p.Ring < -1:
		c.Fail("packet %d ring %d below -1", id, p.Ring)
	case localMis != (p.MisrouteGroup >= 0):
		c.Fail("packet %d local-misroute flag %v contradicts misroute group %d", id, localMis, p.MisrouteGroup)
	case onRing != (p.Ring >= 0):
		c.Fail("packet %d on-ring flag %v contradicts ring %d", id, onRing, p.Ring)
	case int(hops) != p.Hops():
		c.Fail("packet %d total hops %d, not the %d its counters sum to", id, hops, p.Hops())
	case p.Job < -1 || int(p.Job) >= n.Stats.Jobs():
		// -1 (untagged) is always valid; a tagged packet needs its slot to
		// exist in the attached generator's job table.
		c.Fail("packet %d job slot %d outside the %d enabled slots", id, p.Job, n.Stats.Jobs())
	}
}
