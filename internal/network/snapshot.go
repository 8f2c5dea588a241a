package network

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/topology"
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
//   - Path tracing: a diagnostics sink with per-packet allocation; Restore
//     resets it to disabled.
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
	// encode/decode pairs below must bump it; Restore rejects other versions.
	// Version 2 added the packet Job tag and the per-job statistics section.
	// Version 3 replaced the single traffic RNG state with one state per
	// dragonfly group (the sharded injection front-end's per-group streams).
	SnapshotVersion = 3

	maxSnapCfgJSON = 1 << 20
	maxSnapPackets = 1 << 26
	maxSnapEvents  = 1 << 26
	maxSnapLog     = 1 << 24
	maxSnapGenName = 1 << 12
	maxSnapQueue   = 1 << 24
	maxSnapRings   = 1 << 16
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
// deterministic: the same state always produces the same bytes.
func (n *Network) Snapshot(w io.Writer) error {
	cfgJSON, err := json.Marshal(normalizeConfig(n.Cfg))
	if err != nil {
		return fmt.Errorf("network: snapshot config: %w", err)
	}
	var payload simcore.Enc
	n.encodePayload(&payload)
	data := payload.Data()

	var hdr simcore.Enc
	hdr.Raw([]byte(snapMagic))
	hdr.U64(SnapshotVersion)
	hdr.U64(EngineDigest())
	hdr.Bytes(cfgJSON)
	hdr.U64(simcore.Checksum64(data))
	hdr.Int(len(data)) // with data behind it: the payload as a byte string
	for _, b := range [][]byte{hdr.Data(), data} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("network: snapshot write: %w", err)
		}
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
// network's state is unspecified: discard it.
func (n *Network) Restore(r io.Reader) error {
	var raw []byte
	var err error
	if l, ok := r.(interface{ Len() int }); ok {
		// bytes.Reader, bytes.Buffer: one buffer of exactly the image's size
		// instead of ReadAll's doubling.
		raw = make([]byte, l.Len())
		_, err = io.ReadFull(r, raw)
	} else {
		raw, err = io.ReadAll(r)
	}
	if err != nil {
		return fmt.Errorf("network: restore read: %w", err)
	}
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
	if err := n.decodePayload(simcore.NewDec(payload)); err != nil {
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
	var payload simcore.Enc
	n.encodePayload(&payload)
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
	if err := m.decodePayload(simcore.NewDec(payload.Data())); err != nil {
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
func (n *Network) forEachPacket(f func(*packet.Packet)) {
	for _, r := range n.Routers {
		r.ForEachPacket(f)
	}
	for i := range n.pending {
		pq := &n.pending[i]
		for _, p := range pq.q[pq.head:] {
			f(p)
		}
	}
	n.wheel.ForEach(func(ev event) {
		if ev.kind == evArrive {
			f(ev.pkt)
		}
	})
}

func (n *Network) encodePayload(e *simcore.Enc) {
	// Deduplicated packet table, sorted by ID for deterministic bytes. A
	// committed packet can be referenced twice — by the draining buffer that
	// still holds it and by its in-flight arrival event — and must decode to
	// one object, which is why buffers and events store IDs into this table.
	pkts := make([]*packet.Packet, 0, n.BufferedPackets()+n.PendingPackets()+n.wheel.Pending())
	n.forEachPacket(func(p *packet.Packet) { pkts = append(pkts, p) })
	slices.SortFunc(pkts, func(a, b *packet.Packet) int { return cmp.Compare(a.ID, b.ID) })
	pkts = slices.Compact(pkts)

	// Presize to the image: one router's encoding stands for all of them
	// (they differ by a few VCs and their queued IDs), a packet costs its
	// record plus up to two 8-byte references, an event 49 bytes. A miss only
	// means append grows the buffer.
	var probe simcore.Enc
	n.Routers[0].EncodeState(&probe)
	e.Grow(len(n.Routers)*len(probe.Data())*21/20 + len(pkts)*(snapPacketBytes+16) +
		n.wheel.Pending()*49 + len(n.pending)*8 + len(n.grantLog)*73 + 64<<10)

	e.I64(n.now)
	e.Int(n.inFlight)
	e.I64(n.CongestionStalls)
	e.Int(n.faultIdx)
	e.Bool(n.deadRouter != nil)
	if n.deadRouter != nil {
		for _, b := range n.deadRouter {
			e.Bool(b)
		}
		for _, b := range n.deadNode {
			e.Bool(b)
		}
	}
	for _, rng := range n.trafficRNG {
		for _, s := range rng.State() {
			e.U64(s)
		}
	}
	e.U64(n.pool.Outstanding())

	e.Bool(n.digestOn)
	e.U64(n.digest)
	e.I64(n.digestCount)
	e.Int(n.logCap)
	e.Int(len(n.grantLog))
	for i := range n.grantLog {
		g := &n.grantLog[i]
		e.I64(g.Cycle)
		e.Int(g.Router)
		e.Int(g.InPort)
		e.Int(g.InVC)
		e.Int(g.Out)
		e.Int(g.VC)
		e.Int(g.Src)
		e.Int(g.Dst)
		e.I64(g.Born)
		e.Bool(g.Eject)
	}

	e.Bool(n.gen != nil)
	if n.gen != nil {
		e.Bytes([]byte(n.gen.Name()))
		sg, stateful := n.gen.(traffic.StatefulGenerator)
		e.Bool(stateful)
		if stateful {
			sg.EncodeState(e)
		}
	}

	n.Stats.EncodeState(e)

	e.Int(len(pkts))
	for _, p := range pkts {
		encodePacket(e, p)
	}

	e.Int(len(n.pending))
	for i := range n.pending {
		pq := &n.pending[i]
		e.Int(pq.len())
		for j := pq.head; j < len(pq.q); j++ {
			e.U64(uint64(pq.q[j].ID))
		}
	}

	e.Int(len(n.Rings))
	for _, rg := range n.Rings {
		rg.EncodeState(e)
	}

	for _, r := range n.Routers {
		r.EncodeState(e)
	}

	for _, b := range n.groupBoards() {
		b.EncodeState(e)
	}

	e.Int(n.wheel.Pending())
	n.wheel.ForEachDelay(func(delay int, ev event) {
		e.Int(delay)
		e.U8(uint8(ev.kind))
		e.I64(int64(ev.r))
		e.I64(int64(ev.port))
		e.I64(int64(ev.vc))
		e.I64(int64(ev.phits))
		if ev.kind == evArrive {
			e.U64(uint64(ev.pkt.ID))
		}
	})
}

func (n *Network) decodePayload(d *simcore.Dec) error {
	now := d.I64()
	if d.Err() == nil && now < 0 {
		d.Fail("negative cycle %d", now)
	}
	inFlight := d.Int()
	congestionStalls := d.I64()
	faultIdx := d.Int()
	if d.Err() == nil && (faultIdx < 0 || faultIdx > len(n.faults)) {
		d.Fail("fault cursor %d outside [0,%d]", faultIdx, len(n.faults))
	}
	hasMasks := d.Bool()
	if d.Err() == nil && hasMasks != (n.deadRouter != nil) {
		d.Fail("fault liveness masks present=%v, network configured=%v", hasMasks, n.deadRouter != nil)
	}
	if d.Err() != nil {
		return d.Err()
	}
	if hasMasks {
		for i := range n.deadRouter {
			n.deadRouter[i] = d.Bool()
		}
		for i := range n.deadNode {
			n.deadNode[i] = d.Bool()
		}
	}
	for g := range n.trafficRNG {
		var st [4]uint64
		for i := range st {
			st[i] = d.U64()
		}
		if d.Err() == nil {
			if err := n.trafficRNG[g].SetState(st); err != nil {
				d.Fail("traffic rng group %d: %v", g, err)
			}
		}
	}
	outstanding := d.U64()

	digestOn := d.Bool()
	digest := d.U64()
	digestCount := d.I64()
	logCap := d.Len(maxSnapLog)
	nLog := d.Len(maxSnapLog)
	if d.Err() == nil && nLog > logCap {
		d.Fail("grant log holds %d events beyond its cap %d", nLog, logCap)
	}
	if d.Err() != nil {
		return d.Err()
	}
	var grantLog []GrantEvent
	if logCap > 0 {
		grantLog = make([]GrantEvent, 0, min(nLog, 1024))
	}
	for i := 0; i < nLog; i++ {
		var g GrantEvent
		g.Cycle = d.I64()
		g.Router = d.Int()
		g.InPort = d.Int()
		g.InVC = d.Int()
		g.Out = d.Int()
		g.VC = d.Int()
		g.Src = d.Int()
		g.Dst = d.Int()
		g.Born = d.I64()
		g.Eject = d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		grantLog = append(grantLog, g)
	}

	if hasGen := d.Bool(); hasGen {
		name := string(d.Bytes(maxSnapGenName))
		stateful := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if stateful {
			sg, ok := n.gen.(traffic.StatefulGenerator)
			if !ok || n.gen.Name() != name {
				d.Fail("snapshot carries state for generator %q; attach the same generator before Restore", name)
				return d.Err()
			}
			if err := sg.DecodeState(d); err != nil {
				return err
			}
		}
		// Stateless source: nothing to restore. The caller is responsible for
		// attaching an equivalent generator (its draws come from trafficRNG,
		// which is serialized, so an identical source reproduces the run).
	}

	if err := n.Stats.DecodeState(d); err != nil {
		return err
	}

	nPkts := d.Len(maxSnapPackets)
	if d.Err() != nil {
		return d.Err()
	}
	if nPkts > d.Remaining()/snapPacketBytes {
		// Bound the block by the input, not by a header field.
		d.Fail("truncated input: %d packets need %d bytes, have %d", nPkts, nPkts*snapPacketBytes, d.Remaining())
		return d.Err()
	}
	// The outgoing state's packets go back to their pools (a packet held twice
	// once: the first visit clears its ID) and the image's packets reuse them,
	// so a Restore loop keeps one packet population, not a block per Restore.
	n.forEachPacket(func(p *packet.Packet) {
		if p.ID != 0 {
			p.ID = 0
			n.putPacket(p)
		}
	})
	// In ID order, strictly increasing: the table is its own ID→packet index.
	pkts := make([]*packet.Packet, nPkts)
	var prevID uint64
	for i := range pkts {
		var p packet.Packet
		id := n.decodePacket(d, &p)
		if d.Err() != nil {
			return d.Err()
		}
		pkts[i] = n.poolG[p.SrcGroup].GetBlank()
		*pkts[i] = p
		if id <= prevID {
			d.Fail("packet IDs not strictly increasing at %d", id)
			return d.Err()
		}
		if id > outstanding {
			d.Fail("packet ID %d beyond the pool's %d handed-out IDs", id, outstanding)
			return d.Err()
		}
		prevID = id
	}
	lookup := func(id uint64) (*packet.Packet, error) {
		i := sort.Search(len(pkts), func(i int) bool { return uint64(pkts[i].ID) >= id })
		if i < len(pkts) && uint64(pkts[i].ID) == id {
			return pkts[i], nil
		}
		return nil, fmt.Errorf("unknown packet ID %d", id)
	}

	if np := d.Len(maxSnapPackets); d.Err() == nil && np != len(n.pending) {
		d.Fail("pending queues for %d nodes, network has %d", np, len(n.pending))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for node := range n.pending {
		pq := &n.pending[node]
		pq.q = pq.q[:0]
		pq.head = 0
		cnt := d.Len(maxSnapQueue)
		for j := 0; j < cnt && d.Err() == nil; j++ {
			p, err := lookup(d.U64())
			if d.Err() == nil && err != nil {
				d.Fail("pending[%d]: %v", node, err)
			}
			if d.Err() == nil {
				pq.q = append(pq.q, p)
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
		n.gs[node/n.groupNodes].setPend(node%n.groupNodes, cnt > 0)
	}

	if nr := d.Len(maxSnapRings); d.Err() == nil && nr != len(n.Rings) {
		d.Fail("snapshot has %d rings, network has %d", nr, len(n.Rings))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for j := range n.Rings {
		rg, err := topology.DecodeRing(d, n.Topo.Routers)
		if err != nil {
			return err
		}
		n.Rings[j] = rg
	}

	for _, r := range n.Routers {
		if err := r.DecodeState(d, lookup, now); err != nil {
			return err
		}
	}

	for _, b := range n.groupBoards() {
		if err := b.DecodeState(d); err != nil {
			return err
		}
	}

	// The wheel is emptied and refilled in place: its buckets keep the
	// capacity they grew, so the window after a Restore does not re-grow them.
	wheel := n.wheel
	wheel.Reset()
	nEv := d.Len(maxSnapEvents)
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < nEv; i++ {
		delay := d.Int()
		kind := evKind(d.U8())
		rr := d.I64()
		port := d.I64()
		vc := d.I64()
		phits := d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		if delay < 0 || delay > wheel.Horizon() {
			d.Fail("event delay %d outside wheel horizon %d", delay, wheel.Horizon())
			return d.Err()
		}
		if kind > evCredit {
			d.Fail("unknown event kind %d", kind)
			return d.Err()
		}
		if rr < 0 || rr >= int64(len(n.Routers)) {
			d.Fail("event router %d out of range", rr)
			return d.Err()
		}
		rt := n.Routers[rr]
		if port < 0 || port >= int64(len(rt.In)) {
			d.Fail("event port %d out of range on router %d", port, rr)
			return d.Err()
		}
		maxVC := len(rt.In[port].VCs)
		if kind == evCredit {
			maxVC = rt.Out[port].NumVCs()
		}
		if vc < 0 || vc >= int64(maxVC) {
			d.Fail("event vc %d out of range on router %d port %d", vc, rr, port)
			return d.Err()
		}
		if phits < 0 || phits > int64(n.Cfg.PacketSize) {
			d.Fail("event phits %d out of range", phits)
			return d.Err()
		}
		ev := event{kind: kind, r: int32(rr), port: int16(port), vc: int16(vc), phits: int32(phits)}
		if kind == evArrive {
			p, err := lookup(d.U64())
			if d.Err() != nil {
				return d.Err()
			}
			if err != nil {
				d.Fail("event: %v", err)
				return d.Err()
			}
			ev.pkt = p
		}
		wheel.Schedule(delay, ev)
	}
	if d.Remaining() != 0 {
		d.Fail("%d trailing payload bytes", d.Remaining())
		return d.Err()
	}

	// Everything decoded and validated; commit the staged scalars.
	n.now = now
	n.inFlight = inFlight
	n.CongestionStalls = congestionStalls
	n.faultIdx = faultIdx
	n.pool.SetOutstanding(outstanding)
	n.digestOn, n.digest, n.digestCount = digestOn, digest, digestCount
	n.logCap, n.grantLog = logCap, grantLog
	n.traceEvery, n.traces = 0, nil
	n.deriveLookahead()
	return nil
}

// snapPacketBytes is the fixed size of one encodePacket record: 19 64-bit
// fields and 3 flag bytes.
const snapPacketBytes = 19*8 + 3

func encodePacket(e *simcore.Enc, p *packet.Packet) {
	e.U64(uint64(p.ID))
	e.Int(p.Size)
	e.Int(p.Dst)
	e.Int(p.SrcGroup)
	e.Int(p.DstGroup)
	e.Int(p.ValiantGroup)
	e.I64(p.BlockedSince)
	e.Bool(p.GlobalMisrouted)
	e.Bool(p.LocalMisrouted)
	e.Bool(p.OnRing)
	e.I64(int64(p.Ring))
	e.Int(p.LocalHops)
	e.Int(p.GlobalHops)
	e.Int(p.Src)
	e.Int(p.MisrouteGroup)
	e.Int(p.TotalHops)
	e.Int(p.RingExits)
	e.Int(p.RingHops)
	e.I64(int64(p.Job))
	e.I64(p.Born)
	e.I64(p.Injected)
	e.I64(p.Done)
}

// decodePacket fills p from d and returns the packet's ID (0 on decode
// error). Field ranges are validated against this network's topology.
func (n *Network) decodePacket(d *simcore.Dec, p *packet.Packet) uint64 {
	id := d.U64()
	p.ID = packet.ID(id)
	p.Size = d.Int()
	p.Dst = d.Int()
	p.SrcGroup = d.Int()
	p.DstGroup = d.Int()
	p.ValiantGroup = d.Int()
	p.BlockedSince = d.I64()
	p.GlobalMisrouted = d.Bool()
	p.LocalMisrouted = d.Bool()
	p.OnRing = d.Bool()
	ring := d.I64()
	p.LocalHops = d.Int()
	p.GlobalHops = d.Int()
	p.Src = d.Int()
	p.MisrouteGroup = d.Int()
	p.TotalHops = d.Int()
	p.RingExits = d.Int()
	p.RingHops = d.Int()
	job := d.I64()
	p.Born = d.I64()
	p.Injected = d.I64()
	p.Done = d.I64()
	if d.Err() != nil {
		return 0
	}
	switch {
	case id == 0:
		d.Fail("packet ID 0 (IDs start at 1)")
	case p.Size != n.Cfg.PacketSize:
		d.Fail("packet %d size %d != configured %d", id, p.Size, n.Cfg.PacketSize)
	case p.Src < 0 || p.Src >= n.Topo.Nodes || p.Dst < 0 || p.Dst >= n.Topo.Nodes:
		d.Fail("packet %d endpoints %d→%d outside [0,%d)", id, p.Src, p.Dst, n.Topo.Nodes)
	case p.SrcGroup < 0 || p.SrcGroup >= n.Topo.G || p.DstGroup < 0 || p.DstGroup >= n.Topo.G:
		d.Fail("packet %d group fields out of range", id)
	case p.ValiantGroup < -1 || p.ValiantGroup >= n.Topo.G || p.MisrouteGroup < -1 || p.MisrouteGroup >= n.Topo.G:
		d.Fail("packet %d intermediate-group fields out of range", id)
	case ring < -1 || ring > 127:
		d.Fail("packet %d ring %d outside int8", id, ring)
	case job < -1 || job >= int64(n.Stats.Jobs()):
		// -1 (untagged) is always valid; a tagged packet needs its slot to
		// exist in the attached generator's job table.
		d.Fail("packet %d job slot %d outside the %d enabled slots", id, job, n.Stats.Jobs())
	}
	p.Ring = int8(ring)
	p.Job = int32(job)
	return id
}
