package network

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"unsafe"

	"ofar/internal/core"
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/routing"
	"ofar/internal/simcore"
	"ofar/internal/stats"
	"ofar/internal/topology"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

type evKind uint8

const (
	evArrive evKind = iota
	evDrain
	evDrainDeliver
	evCredit
)

// event is a 12-byte wheel entry: Validate caps ports and VCs at 64, a
// credit always returns one packet's space, and an arrival names its
// packet by handle.
type event struct {
	pkt  packet.Handle
	r    int32
	port int8
	vc   int8
	kind evKind
}

// schedEv is an outbox entry: an event for the shared wheel and the window
// cycle it fires at (the group's marks say which cycle and phase made it).
type schedEv struct {
	ev event
	at int32
}

// fxRec is a delivery or fault drop waiting for the merge, with its index in
// the cycle's wheel slot. A cycle's deliveries were all scheduled by one
// router stage, so ascending group is their due order; drops (one-cycle
// windows only, see Run) are put back in due order by idx.
type fxRec struct {
	pkt  packet.Handle
	idx  int32
	drop bool
}

// genRec is one deferred generation event: a packet created by generateGroup
// (ID not yet assigned) or a dead-destination drop that consumed a
// destination draw without allocating (pkt == packet.None). The merge
// replays these in ascending (group, node) order to stamp IDs and fold the
// observable effects, whoever walked the groups.
type genRec struct {
	pkt  packet.Handle
	node int32
	dst  int32
}

// grantRec is the observable half of one grant, as values: logged only while
// the digest or fault attribution needs it (see Run). detour marks a
// misroute or ring entry, what fault attribution inspects.
type grantRec struct {
	born                  int64
	r, src, dst           int32
	inPort, inVC, out, vc uint8
	eject, detour         bool
}

// mark holds the lengths of a group's pre list and logs when one window
// cycle began — cycle k of the window owns [marks[k], marks[k+1]) — and, for
// the outbox, when its router stage began: the events phase of cycle k
// inserted out[marks[k].out:marks[k].outR], its router stage the rest.
type mark struct{ pre, fx, gen, gr, out, outR int32 }

// tally is a group's counter deltas, plain sums the merge adds up.
type tally struct {
	inFlight                                             int
	blocked, injected, congStalls                        int64
	globalMis, localMis, ringEnters, ringExits, ringHops int64
}

// groupScratch is one group's window state — its event ring, the logs and
// outbox the merge reads, its counter deltas — and its injection front-end
// state, padded to whole cache lines so adjacent groups written by different
// workers never false-share. The pad is derived from the fields, and leads:
// a zero-length last field would itself be padded.
type groupScratch struct {
	_ [(64 - unsafe.Sizeof(groupState{})%64) % 64]byte
	groupState
}

type groupState struct {
	// ring holds the events the group schedules for itself that fall due
	// inside the window, by cycle modulo its length (a power of two above
	// every delay inside a group); pre the slot indices of the shared wheel's
	// events for the group, window cycle by window cycle.
	ring  [][]event
	pre   []int32
	marks []mark
	out   []schedEv
	fx    []fxRec
	gen   []genRec
	grs   []grantRec
	tally
	ph PhaseNanos // laps of the sampled cycles (see clock)
	// This cycle's draw, and the pending-occupancy bitset: bit i set ⇔
	// pending[g·groupNodes+i] is non-empty (derived, never serialized).
	hits []traffic.Hit
	pend []uint64
}

// Network is one fully assembled simulated system.
type Network struct {
	Cfg     Config
	Topo    *topology.Dragonfly
	Routers []*router.Router
	Engine  router.Engine
	Rings   []*topology.Ring
	Stats   *stats.Run

	wheel *simcore.Wheel[event]

	// arenas[g] backs every slice of group g's routers (router.Arena).
	arenas []*router.Arena

	// Packet allocation is split between a run-wide ID authority and
	// per-group memory shards: pool owns the ID sequence (and the
	// Outstanding counter snapshots carry), while poolG[g] owns the free
	// list and blocks of pkts that group g's sources allocate from and its
	// terminal packets recycle into — so concurrent group shards never touch
	// a shared allocator, and block-carve locality follows the group. The
	// rest of the state names packets by their handles in pkts.
	pkts  packet.Store
	pool  packet.Pool
	poolG []packet.Pool
	tab   packet.Refs // Restore's position → handle table, reused

	// trafficRNG[g] is group g's traffic stream, derived deterministically
	// from the run seed (one stream per dragonfly group). Nodes of group g
	// draw from stream g in ascending node order — the same sequence whether
	// the caller or a pool worker walks the group.
	trafficRNG []*simcore.RNG
	pending    []pqueue
	gen        traffic.Generator
	groupNodes int // nodes per group (Topo.P * Topo.A)
	now        int64
	usePB      bool
	inFlight   int
	settled    int64 // cycle of the last delivery or drop (see RunUntilDrained)

	congestionOn bool
	congestionTh float64

	// Fault injection (Config.Faults): the schedule sorted by firing order,
	// the cursor of the next unapplied fault, and the liveness masks the
	// event loop consults. The masks are nil when no faults are configured,
	// keeping the fault-free hot path untouched.
	faults     []Fault
	faultIdx   int
	deadRouter []bool
	deadNode   []bool

	// Who walks the groups. With Config.Workers > 1 the network owns a
	// persistent worker pool (see pool.go) of `workers` participants, all
	// sharing the stateless Engine; a window goes to the pool when the
	// network has at least `cutover` routers (see pooled) and is walked by
	// the caller otherwise. workerPool is nil on Workers <= 1 networks and
	// after Close.
	workers    int
	workerPool *stepPool
	cutover    int

	// Lookahead windows (Run): lookahead caps a window at the shortest
	// latency between groups; win is the current window's length, logGrants
	// whether its grants are logged for the merge. gs is the per-group state.
	groupSize int     // routers per group (Topo.A)
	groupOf   []int32 // router → group
	lookahead int
	win       int
	logGrants bool
	gs        []groupScratch
	slots     [][]event       // the shared wheel's slots of the window's cycles
	fxBuf     []fxRec         // one cycle's effects, gathered by the merge
	busy      []*groupScratch // the groups with records in a merged cycle

	// Grant digest: FNV-1a fold of every committed grant, delivery and drop,
	// for cheap bit-equivalence checks between engines.
	digestOn bool
	digest   fnvDigest

	// obs, when set, receives every event the merge commits (see observer).
	obs observer

	// Job-aware accounting (SetGenerator with a traffic.JobAware source):
	// node → job slot, consulted once per generated packet to tag it. Nil
	// under plain generators, keeping their hot path untouched.
	jobOf []int32

	// Packet-trace recorder (SetTraceRecorder): every generated packet —
	// including dead-destination drops, which consume a destination draw —
	// appends one (cycle, src, dst, size) record. Retracted generation
	// attempts are not recorded; they inject nothing.
	rec *trace.Recorder

	// CongestionStalls counts node-cycles in which the congestion manager
	// blocked an injection.
	CongestionStalls int64

	// Per-phase timing (EnablePhaseTimings): wall-clock nanoseconds
	// accumulated per phase, and the laps of the sampled cycles that split
	// each window's wall time among the phases (see clock).
	timingOn bool
	phaseNs  PhaseNanos
	laps     PhaseNanos
}

type pqueue struct {
	q    []packet.Handle
	head int
}

func (p *pqueue) len() int             { return len(p.q) - p.head }
func (p *pqueue) push(x packet.Handle) { p.q = append(p.q, x) }
func (p *pqueue) pop() packet.Handle {
	x := p.q[p.head]
	p.head++
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	} else if p.head > 64 && p.head*2 >= len(p.q) {
		p.q, p.head = p.q[:copy(p.q, p.q[p.head:])], 0
	}
	return x
}

// New assembles a network from a configuration. A traffic generator must be
// attached with SetGenerator before stepping.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
	if err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg, Topo: topo}

	if cfg.Ring != RingNone {
		rings, err := topo.HamiltonianRings(cfg.NumRings)
		if err != nil {
			return nil, fmt.Errorf("network: escape ring construction: %w", err)
		}
		n.Rings = rings
	}

	switch cfg.Routing {
	case MIN:
		n.Engine = routing.NewMinimal(topo)
	case VAL:
		n.Engine = routing.NewValiant(topo)
	case UGAL:
		n.Engine = routing.NewUGAL(topo, cfg.Adaptive)
	case PAR:
		n.Engine = routing.NewPAR(topo, cfg.Adaptive)
	case PB:
		n.Engine = routing.NewPB(topo, cfg.Adaptive)
		n.usePB = true
	case OFAR, OFARL:
		oc := cfg.OFAR
		oc.LocalMisroute = cfg.Routing == OFAR
		n.Engine = core.New(topo, oc)
	}

	// Input-buffer VC profiles per (router, input port), in packets (Validate
	// makes every FIFO a whole number of them); escape VCs of embedded rings
	// are appended to the canonical profile of the links the ring traverses.
	nPorts := topo.RouterPorts
	if cfg.Ring == RingPhysical {
		nPorts += cfg.NumRings
	}
	type prof struct {
		caps []int
		ring []int
	}
	profs := make([][]prof, topo.Routers)
	mkProf := func(vcs, buf int, ring int) prof {
		p := prof{caps: make([]int, vcs), ring: make([]int, vcs)}
		for i := range vcs {
			p.caps[i], p.ring[i] = buf/cfg.PacketSize, ring
		}
		return p
	}
	for r := 0; r < topo.Routers; r++ {
		profs[r] = make([]prof, nPorts)
		for port := 0; port < topo.RouterPorts; port++ {
			kind, _, _ := topo.Peer(r, port)
			switch kind {
			case topology.PortNode:
				profs[r][port] = mkProf(cfg.InjVCs, cfg.InjBuf, -1)
			case topology.PortLocal:
				profs[r][port] = mkProf(cfg.LocalVCs, cfg.LocalBuf, -1)
			case topology.PortGlobal:
				profs[r][port] = mkProf(cfg.GlobalVCs, cfg.GlobalBuf, -1)
			}
		}
	}
	if cfg.Ring == RingEmbedded {
		for j, rg := range n.Rings {
			for r := 0; r < topo.Routers; r++ {
				out := rg.EmbeddedPort(r)
				_, peer, peerPort := topo.Peer(r, out)
				esc, pp := mkProf(1, cfg.RingBuf, j), &profs[peer][peerPort]
				pp.caps, pp.ring = append(pp.caps, esc.caps...), append(pp.ring, esc.ring...)
			}
		}
	}
	if cfg.Ring == RingPhysical {
		for j := range n.Rings {
			for r := 0; r < topo.Routers; r++ {
				profs[r][topo.RouterPorts+j] = mkProf(cfg.RingVCs, cfg.RingBuf, j)
			}
		}
	}

	// Flag boards for PB (one per group).
	var boards []*router.FlagBoard
	if n.usePB {
		boards = make([]*router.FlagBoard, topo.G)
		for g := range boards {
			boards[g] = router.NewFlagBoard(topo.A*topo.H, cfg.Adaptive.PBDelay)
		}
	}

	// One traffic stream per dragonfly group, derived before the router
	// streams so the whole derivation order is a pure function of the seed
	// and the group count. (This replaced a single shared stream; the switch
	// is a physics change — same distributions, different draws — visible in
	// EngineDigest(), which is the point: caches key on it.)
	rootRNG := simcore.NewRNG(cfg.Seed)
	n.trafficRNG = make([]*simcore.RNG, topo.G)
	for g := range n.trafficRNG {
		n.trafficRNG[g] = rootRNG.Derive(0x7aff1c ^ uint64(g))
	}

	// Routers are constructed group by group into contiguous []Router slabs,
	// each group's slices carved from a private arena sized to exactly what
	// its routers carve: one dragonfly group — the ownership unit of the
	// lookahead windows — then occupies a contiguous, cache-dense region
	// instead of ~a·(2+ports·(4+vcs)) scattered heap objects, and not a byte
	// more.
	//
	// Every engine records its Route read sets on the router, so the routers
	// memoize decisions unless the config says not to (Validate guarantees
	// ≤ 64 ports). A call that notes no expiry — every PAR call — is never
	// replayed.
	params := func(r int) router.Params {
		ports := make([]router.PortSpec, nPorts)
		for port := 0; port < topo.RouterPorts; port++ {
			kind, peer, peerPort := topo.Peer(r, port)
			ps := router.PortSpec{Kind: kind, Latency: 1, Peer: -1, PeerPort: -1, UpRouter: -1, UpPort: -1}
			switch kind {
			case topology.PortNode:
				ps.InCaps, ps.InRing = profs[r][port].caps, profs[r][port].ring
				ps.OutCaps, ps.OutRing = []int{1}, []int{-1}
			case topology.PortNone:
			default:
				ps.Peer, ps.PeerPort = peer, peerPort
				ps.UpRouter, ps.UpPort = peer, peerPort
				ps.Latency = cfg.LocalLatency
				if kind == topology.PortGlobal {
					ps.Latency = cfg.GlobalLatency
				}
				ps.InCaps, ps.InRing = profs[r][port].caps, profs[r][port].ring
				ps.OutCaps, ps.OutRing = profs[peer][peerPort].caps, profs[peer][peerPort].ring
			}
			ports[port] = ps
		}
		var ringOuts []int
		if cfg.Ring == RingPhysical {
			for j, rg := range n.Rings {
				port := topo.RouterPorts + j
				lat := cfg.LocalLatency
				if rg.EdgeIsGlobal(r) {
					lat = cfg.GlobalLatency
				}
				prev := rg.Order[(rg.Pos(r)-1+len(rg.Order))%len(rg.Order)]
				ports[port] = router.PortSpec{
					Kind:     topology.PortRing,
					Peer:     rg.Next(r),
					PeerPort: port, // ring port index is uniform across routers
					UpRouter: prev,
					UpPort:   port,
					Latency:  lat,
					InCaps:   profs[r][port].caps, InRing: profs[r][port].ring,
					OutCaps: profs[rg.Next(r)][port].caps, OutRing: profs[rg.Next(r)][port].ring,
				}
				ringOuts = append(ringOuts, port)
			}
		} else if cfg.Ring == RingEmbedded {
			for _, rg := range n.Rings {
				ringOuts = append(ringOuts, rg.EmbeddedPort(r))
			}
		}
		var pb *router.FlagBoard
		if n.usePB {
			pb = boards[topo.GroupOf(r)]
		}
		return router.Params{
			ID:          r,
			Topo:        topo,
			PktSize:     cfg.PacketSize,
			AllocIters:  cfg.AllocIters,
			RNG:         rootRNG.Derive(uint64(r) + 1),
			Ports:       ports,
			RingOuts:    ringOuts,
			PB:          pb,
			PBThreshold: cfg.Adaptive.PBThreshold,
			Packets:     &n.pkts,
		}
	}
	n.Routers = make([]*router.Router, topo.Routers)
	routerSlab := make([]router.Router, topo.Routers)
	n.arenas = make([]*router.Arena, topo.G)
	group := make([]router.Params, topo.A)
	for g := range n.arenas {
		var size router.ArenaSize
		for i := range group {
			group[i] = params(g*topo.A + i)
			size.Add(group[i])
		}
		n.arenas[g] = router.NewArena(size)
		for i := range group {
			r := g*topo.A + i
			group[i].Arena = n.arenas[g]
			n.Routers[r] = &routerSlab[r]
			router.NewInto(n.Routers[r], group[i])
			if !cfg.DisableRouteCache {
				n.Routers[r].EnableRouteCache()
			}
		}
	}

	n.wheel = simcore.NewWheel[event](max(cfg.GlobalLatency, cfg.LocalLatency, cfg.PacketSize) + 2)
	// A group's packets at worst fill every VC, its nodes' source queues and
	// a window of every ejection port's deliveries (the merge frees them),
	// and a window generates at most one per node and cycle (see window).
	slots := 0
	for _, a := range n.arenas {
		slots += a.Size.PacketSlots
	}
	live := slots + cfg.PendingCap*topo.P*topo.A + topo.Nodes*(n.wheel.Horizon()/cfg.PacketSize+1)
	if !packet.Addressable(topo.G, live, topo.P*topo.A*n.wheel.Horizon()) {
		return nil, fmt.Errorf("network: %d packets per group exceed what 32-bit packet handles address", live)
	}
	n.pending = make([]pqueue, topo.Nodes)
	n.Stats = stats.NewRun(topo.Nodes, cfg.PacketSize)
	if cfg.Congestion.Enabled {
		n.congestionOn = true
		n.congestionTh = cfg.Congestion.Threshold
		if n.congestionTh == 0 {
			n.congestionTh = 0.7
		}
	}
	n.groupSize = topo.A
	n.groupNodes = topo.P * topo.A
	n.poolG = packet.NewPools(&n.pkts, topo.G)
	n.gs = make([]groupScratch, topo.G)
	n.slots = make([][]event, n.wheel.Horizon())
	n.groupOf = make([]int32, topo.Routers)
	for r := range n.groupOf {
		n.groupOf[r] = int32(topo.GroupOf(r))
	}
	for g := range n.gs {
		s := &n.gs[g]
		s.pend = make([]uint64, (n.groupNodes+63)/64)
		// Within a group only local links and drains schedule.
		s.ring = make([][]event, 1<<bits.Len(uint(max(cfg.LocalLatency, cfg.PacketSize)+1)))
		s.marks = make([]mark, n.wheel.Horizon()+1)
	}
	if len(cfg.Faults) > 0 {
		if err := n.prepareFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	n.deriveLookahead()
	n.workers = cfg.PoolWidth()
	if n.workers > 1 {
		n.cutover = autoCutover(n.workers)
		n.startPool(n.workers)
	}
	return n, nil
}

// autoCutover picks the router count below which a Workers > 1 network
// walks its windows on the caller's goroutine, from the machine and the
// worker count rather than a runtime measurement (which would make
// wall-clock behavior depend on warm-up noise). With GOMAXPROCS == 1 a pool
// dispatch can never win — the caller computes every group and then pays
// goroutine switches to join the parked workers — so the cutover is pinned
// above any router count (in-package tests that need the pool override it
// after construction). On multicore a dispatch (wake + steal + join) costs a
// few microseconds and one working router-cycle ~1–2 µs, so splitting across
// w workers breaks even at a few routers per worker even for a one-cycle
// window; 6·workers keeps a comfortable margin. The cutover moves wall-clock
// time only; results are bit-identical either way.
func autoCutover(workers int) int {
	if runtime.GOMAXPROCS(0) < 2 {
		return math.MaxInt32
	}
	return 6 * workers
}

// pooled reports whether the pool steals the window's groups: not on a tiny
// network or one the cutover pins to the caller.
func (n *Network) pooled() bool {
	return n.workerPool != nil && len(n.Routers) >= n.cutover
}

// SetGenerator attaches the traffic source. A job-aware source additionally
// sizes the per-job statistics and installs the node→job table used to tag
// every generated packet; attaching a plain generator clears both.
func (n *Network) SetGenerator(g traffic.Generator) {
	n.gen = g
	n.jobOf = nil
	if ja, ok := g.(traffic.JobAware); ok {
		n.jobOf = make([]int32, n.Topo.Nodes)
		for node := range n.jobOf {
			n.jobOf[node] = int32(ja.JobOf(node))
		}
		names := make([]string, ja.NumJobs())
		nodes := make([]int, ja.NumJobs())
		for j := range names {
			names[j] = ja.JobName(j)
			nodes[j] = ja.JobNodes(j)
		}
		n.Stats.EnableJobs(names, nodes)
	}
}

// SetTraceRecorder attaches a packet-trace recorder (nil detaches). Every
// packet generated from here on appends one record; replaying the records
// with traffic.TraceReplay reproduces the run bit-identically.
func (n *Network) SetTraceRecorder(r *trace.Recorder) { n.rec = r }

// Generator returns the attached traffic source.
func (n *Network) Generator() traffic.Generator { return n.gen }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Step advances the simulation one cycle: Run(1).
func (n *Network) Step() { n.Run(1) }

// Run advances the simulation by the given number of cycles in lookahead
// windows (docs/ARCHITECTURE.md, "Lookahead windows"). Groups meet only over
// links of at least lookahead cycles, so for that long no group sees what
// another does: each group — walked by the caller or stolen by the pool —
// runs every cycle of the window while its state is cache-hot, and the merge
// commits everything shared in the serial order of one cycle at a time. A
// window ends at the next scheduled fault, and is one cycle long while a
// router is dead.
func (n *Network) Run(cycles int) {
	for cycles > 0 {
		cycles -= n.window(cycles)
	}
}

// window runs one window of at most left cycles and returns its length.
func (n *Network) window(left int) int {
	var t int64
	if n.timingOn {
		t = ticks()
	}
	if n.faultIdx < len(n.faults) {
		n.applyDueFaults(n.now)
	}
	t = lap(&n.phaseNs.Faults, t)
	w := min(left, n.lookahead)
	if n.faultIdx < len(n.faults) {
		w = min(w, int(n.faults[n.faultIdx].Cycle-n.now))
	}
	n.win, n.logGrants = w, n.digestOn || n.obs != nil || n.faultIdx > 0
	for g := range n.poolG { // a window's carving writes only reserved directory entries
		n.poolG[g].Reserve(n.groupNodes * w)
	}

	// Split the shared wheel's events due in the window by target group.
	for k := 0; k <= w; k++ {
		for g := range n.gs {
			n.gs[g].marks[k].pre = int32(len(n.gs[g].pre))
		}
		if k < w {
			n.slots[k] = n.wheel.Peek(k)
			for i, ev := range n.slots[k] {
				s := &n.gs[n.groupOf[ev.r]]
				s.pre = append(s.pre, int32(i))
			}
		}
	}
	if n.pooled() {
		n.runShards()
	} else {
		for g := range n.gs {
			n.runGroup(g)
		}
	}
	n.merge()
	if n.timingOn {
		n.spreadLaps(t, w)
	}
	return w
}

// runGroup walks group g through the window: each cycle its events (the
// shared wheel's, then its own), generation, PB flags and router stage.
// Everything it writes is owned by the group — its routers, queues, traffic
// stream, packet pool and scratch — except the utilization counters of its
// own routers' ports.
func (n *Network) runGroup(g int) {
	s := &n.gs[g]
	for k := 0; k <= n.win; k++ {
		m := &s.marks[k]
		m.fx, m.gen, m.gr, m.out = int32(len(s.fx)), int32(len(s.gen)), int32(len(s.grs)), int32(len(s.out))
		if k == n.win {
			return
		}
		now := n.now + int64(k)
		t := n.clock(now)
		slot := n.slots[k]
		for _, i := range s.pre[s.marks[k].pre:s.marks[k+1].pre] {
			n.handle(s, g, k, slot[i], i, now)
		}
		r := now & int64(len(s.ring)-1)
		if own := s.ring[r]; len(own) > 0 {
			for _, ev := range own {
				n.handle(s, g, k, ev, -1, now)
			}
			s.ring[r] = own[:0]
		}
		t = lap(&s.ph.Events, t)
		if n.gen != nil {
			n.generateGroup(g, now)
			t = lap(&s.ph.Generate, t)
		}
		if n.usePB {
			n.publishPBGroup(g, now)
			t = lap(&s.ph.PB, t)
		}
		m.outR = int32(len(s.out))
		n.cycleGroup(s, g, k, now)
		lap(&s.ph.Routers, t)
	}
}

// sched files a wheel insertion group g makes at window cycle k: into the
// group's ring when it falls due inside the window at one of the group's
// routers (nothing crossing groups can), else into the outbox.
func (n *Network) sched(s *groupScratch, g, k, delay int, ev event) {
	if at := k + 1 + delay; at < n.win && int(n.groupOf[ev.r]) == g {
		r := (n.now + int64(at)) & int64(len(s.ring)-1)
		s.ring[r] = append(s.ring[r], ev)
	} else {
		s.out = append(s.out, schedEv{ev: ev, at: int32(at)})
	}
}

// deriveLookahead sets the window cap from the live wiring: the smallest
// latency of any link joining two groups (a credit sent at cycle s with
// delay L−1 fires at s+L, an arrival at s+1+L), within the wheel horizon —
// or 1 while a router is dead, or a link inside a group outgrows the group
// rings (only a restored image can wire one). Called wherever the wiring or
// liveness can change: New, fault application and Restore.
func (n *Network) deriveLookahead() {
	n.lookahead = n.wheel.Horizon()
	for _, r := range n.Routers {
		for i := range r.Out {
			switch op := &r.Out[i]; {
			case op.Peer < 0:
			case int(op.Peer)/n.groupSize != r.ID/n.groupSize:
				n.lookahead = min(n.lookahead, int(op.Latency))
			case int(op.Latency)+2 > len(n.gs[0].ring):
				n.lookahead = 1
			}
		}
	}
	if n.lookahead < 1 || slices.Contains(n.deadRouter, true) {
		n.lookahead = 1
	}
}

// ActiveRouters reports how many routers hold a routable buffer head right
// now — the ones whose next Cycle does any work. A diagnostic scan, not on
// the Run path.
func (n *Network) ActiveRouters() int {
	total := 0
	for _, r := range n.Routers {
		if r.RoutableVCs() > 0 {
			total++
		}
	}
	return total
}

// publishPBGroup republishes one group's flag board. The boards store
// transitions, so only routers whose global-port occupancy moved since their
// last publish (PBDirty) need to recompute.
func (n *Network) publishPBGroup(g int, now int64) {
	lo := g * n.groupSize
	for _, rt := range n.Routers[lo : lo+n.groupSize] {
		if rt.PBDirty() {
			rt.UpdatePBFlags(now)
		}
	}
}

// Drained reports whether the generator is exhausted (or none is attached)
// and every generated packet was delivered or explicitly dropped by a fault.
func (n *Network) Drained() bool {
	return (n.gen == nil || n.gen.Done()) && n.Stats.Generated == n.Stats.Delivered+n.Stats.Dropped
}

// RunUntilDrained runs windows until the source is exhausted and every
// packet delivered or dropped, or maxCycles elapse. It returns the drain
// cycle — where stepping a cycle at a time stops: one past the last delivery
// or drop (docs/ARCHITECTURE.md, "Running to the drain") — and true, or the
// cycle reached and false.
func (n *Network) RunUntilDrained(maxCycles int) (int64, bool) {
	end, at := n.now+int64(maxCycles), n.now
	for !n.Drained() {
		if n.now >= end {
			return n.now, false
		}
		n.window(int(end - n.now))
		at = n.settled + 1
	}
	return at, true
}

// GrantEvent is one committed crossbar transfer as an observer receives it:
// the granting router, the input buffer, the output assignment and the
// packet identity (source, destination, generation cycle — stable across
// engines, unlike pool-recycled handles). Ports and VCs fit a byte
// (Validate caps both at 64).
type GrantEvent struct {
	Cycle  int64 `json:"t"`
	Router int32 `json:"r"`
	InPort uint8 `json:"ip"`
	InVC   uint8 `json:"iv"`
	Out    uint8 `json:"o"`
	VC     uint8 `json:"v"`
	Src    int32 `json:"s"`
	Dst    int32 `json:"d"`
	Born   int64 `json:"b"`
	Eject  bool  `json:"e,omitempty"`
}

// observer receives every event the merge commits — grants, deliveries and
// drops (fault and dead-destination alike) — with the values the digest
// folds, in the digest's (cycle, phase, group) order. Each kind is reported
// from one place: commitGrant, mergeEffects and dropped.
type observer interface {
	grant(e GrantEvent)
	deliver(now int64, src, dst int32, born, injected int64)
	drop(now int64, src, dst int32, born int64)
}

// EnableGrantDigest folds every committed grant, delivery and drop into a
// running FNV-1a digest. Comparing digests after each cycle proves two runs
// produce identical grant sequences and packet latencies without storing
// the streams (the equivalence and golden-trace tests rely on this).
func (n *Network) EnableGrantDigest() {
	n.digestOn = true
	n.digest.sum = fnvOffset
}

// GrantDigest returns the running digest and the number of events folded
// into it (grants + deliveries + drops).
func (n *Network) GrantDigest() (uint64, int64) { return n.digest.sum, n.digest.count }

// FNV-1a, 64 bit.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvPow[k] is fnvPrime^k: folding k zero bytes multiplies the hash by it.
var fnvPow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime
	}
	return t
}()

// fnvDigest is a running FNV-1a hash and the number of folds into it.
type fnvDigest struct {
	sum   uint64
	count int64
}

// fold folds each value's eight little-endian bytes into the digest; the zero
// bytes above the last significant one go in as one multiplication.
func (d *fnvDigest) fold(vs ...int64) {
	h := d.sum
	for _, v := range vs {
		k := 8
		for x := uint64(v); x != 0; x >>= 8 {
			h = (h ^ (x & 0xff)) * fnvPrime
			k--
		}
		h *= fnvPow[k]
	}
	d.sum = h
	d.count++
}

// handle processes one due event of group g at window cycle k; idx is its
// index in the shared wheel's slot (-1 for the group's ring). Everything
// it mutates directly is owned by the group: the target router (every event
// targets exactly one). Wheel insertions go through sched, the in-flight
// count into the tally, deliveries and drops into the effect log.
func (n *Network) handle(s *groupScratch, g, k int, ev event, idx int32, now int64) {
	switch ev.kind {
	case evArrive:
		s.inFlight--
		if n.deadRouter != nil && n.deadRouter[ev.r] {
			// The packet was launched before the router died; the link
			// delivered it into a void. No credit refund: the upstream port
			// is dead and its counters are frozen.
			s.fx = append(s.fx, fxRec{pkt: ev.pkt, idx: idx, drop: true})
			return
		}
		if n.deadNode != nil && n.deadNode[n.pkts.At(ev.pkt).Dst] {
			// The destination died while the packet was en route. Drop it
			// here rather than let it chase an unreachable ejection port —
			// with a synthesized refund, since the buffer space it reserved
			// on this live router is never consumed.
			if up := &n.Routers[ev.r].In[ev.port]; up.UpRouter >= 0 {
				n.sched(s, g, k, 0, event{kind: evCredit, r: up.UpRouter, port: int8(up.UpPort), vc: ev.vc})
			}
			s.fx = append(s.fx, fxRec{pkt: ev.pkt, idx: idx, drop: true})
			return
		}
		n.Routers[ev.r].Arrive(int(ev.port), int(ev.vc), ev.pkt)
	case evDrain, evDrainDeliver:
		r := n.Routers[ev.r]
		h, upR, upP := r.FinishDrain(int(ev.port), int(ev.vc))
		if ev.kind == evDrain {
			// The packet has fully left this buffer and is now only on the
			// link (its arrival event is pending); with link latencies ≥
			// packetSize-1 — true for all shipped configurations — this
			// keeps the conservation accounting exact.
			s.inFlight++
		}
		if upR >= 0 && (n.deadRouter == nil || !n.deadRouter[ev.r]) {
			// Dead routers return no credits: their upstream ports are dead
			// with frozen counters — except a re-formed ring predecessor,
			// whose counters were re-derived against the new downstream
			// buffer and must not absorb refunds for the old one.
			lat := int(n.Routers[upR].Out[upP].Latency)
			n.sched(s, g, k, lat-1, event{kind: evCredit, r: int32(upR), port: int8(upP), vc: ev.vc})
		}
		if ev.kind == evDrainDeliver {
			s.fx = append(s.fx, fxRec{pkt: h, idx: idx})
		}
	case evCredit:
		n.Routers[ev.r].AddCredit(int(ev.port), int(ev.vc))
	}
}

// generateGroup generates and injects for every node of group g in ascending
// node order. Every observable effect is buffered: packets leave the group's
// pool without an ID (the merge stamps IDs in global order),
// stats/digest/trace/job effects become genRec entries, and counter deltas
// accumulate in the group scratch. Injection side effects (router state,
// AtInjection with the walker's engine) are group-owned and applied
// immediately.
//
// Three passes — draw, queue, inject — equal the per-node interleaving
// because none reads what a later one writes for another node: drawing
// touches only the group's traffic stream and generator state no Retract
// feeds back into (the Generator contract); queueing reads the node's own
// pending length, which nobody else's injection moves, and allocates from the
// group pool in the same node order; injection touches pending queues,
// routers and the router RNG in the same ascending node order — a node with
// an empty queue did nothing there, which is all the bitset skips.
func (n *Network) generateGroup(g int, now int64) {
	topo := n.Topo
	rng := n.trafficRNG[g]
	sh := &n.gs[g]
	lo := g * n.groupNodes
	hi := lo + n.groupNodes

	// Draw (the source's ranged kernel if it has one, else the Next loop).
	sh.hits = sh.hits[:0]
	for a, b := lo, hi; a < hi; a = b + 1 {
		if n.deadNode != nil { // [a, b): a run of live sources; dead ones draw nothing
			for b = a; b < hi && !n.deadNode[b]; b++ {
			}
		}
		sh.hits = traffic.DrawRange(n.gen, rng, a, b, now, sh.hits)
	}

	// Queue.
	for _, h := range sh.hits {
		node, dst := int(h.Node), int(h.Dst)
		pq := &n.pending[node]
		if n.deadNode != nil && n.deadNode[dst] {
			// The destination is down; the source learns immediately
			// (its NIC would): no packet is allocated, only a record.
			sh.gen = append(sh.gen, genRec{pkt: packet.None, node: h.Node, dst: h.Dst})
		} else if pq.len() >= n.Cfg.PendingCap {
			n.gen.Retract(node)
			sh.blocked++
		} else {
			ph := n.poolG[g].Alloc()
			p := n.pkts.At(ph)
			p.Src, p.Dst = h.Node, h.Dst
			p.SrcGroup, p.DstGroup = int16(g), int16(topo.GroupOfNode(dst))
			p.Born = now
			if n.jobOf != nil {
				p.Job = n.jobOf[node]
			}
			pq.push(ph)
			sh.setPend(node-lo, true)
			sh.gen = append(sh.gen, genRec{pkt: ph, node: h.Node, dst: h.Dst})
		}
	}

	// Inject: sources with a packet waiting (never dead: failRouter drops its queue).
	for w := range sh.pend {
		for word := sh.pend[w]; word != 0; word &= word - 1 {
			node := lo + w<<6 + bits.TrailingZeros64(word)
			pq := &n.pending[node]
			h := pq.q[pq.head]
			p := n.pkts.At(h)
			r := n.Routers[topo.RouterOf(node)]
			if n.congestionOn && r.CanonicalOccupancy() >= n.congestionTh {
				sh.congStalls++
				continue
			}
			port := topo.NodePort(topo.NodeSlot(node))
			if vc, ok := r.InjectionSpace(port); ok {
				pq.pop()
				sh.setPend(node-lo, pq.len() > 0)
				r.Inject(port, vc, h, now)
				n.Engine.AtInjection(r, p, now)
				sh.injected++
			}
		}
	}
}

// setPend records whether the pending queue of the group's i-th node is
// non-empty: the one writer of pend, called wherever a queue is pushed,
// popped, dropped or decoded.
func (s *groupState) setPend(i int, on bool) {
	if s.pend[i>>6] &^= 1 << uint(i&63); on {
		s.pend[i>>6] |= 1 << uint(i&63)
	}
}

// cycleGroup runs one group's router stage: Cycle each of its routers,
// schedule each grant's events, count it, and log its observable half when
// the merge needs it.
func (n *Network) cycleGroup(s *groupScratch, g, k int, now int64) {
	lo, S := g*n.groupSize, n.Cfg.PacketSize
	for _, r := range n.Routers[lo : lo+n.groupSize] {
		grants := r.Cycle(n.Engine, now)
		for j := range grants {
			gr := &grants[j]
			p, req := n.pkts.At(gr.Pkt), &gr.Req
			if gr.Eject {
				n.sched(s, g, k, S-1, event{kind: evDrainDeliver, r: int32(r.ID), port: int8(gr.InPort), vc: int8(gr.InVC)})
			} else {
				out := &r.Out[req.Out]
				n.sched(s, g, k, int(out.Latency), event{kind: evArrive, pkt: gr.Pkt, r: out.Peer, port: int8(out.PeerPort), vc: int8(req.VC)})
				n.sched(s, g, k, S-1, event{kind: evDrain, r: int32(r.ID), port: int8(gr.InPort), vc: int8(gr.InVC)})
			}
			n.Stats.AddUtilization(r.ID, int(req.Out), S)
			if req.Has(router.SetGlobalMis) {
				s.globalMis++
			}
			if req.Has(router.SetLocalMis) {
				s.localMis++
			}
			if req.Has(router.EnterRing) {
				s.ringEnters++
			}
			if req.Has(router.ExitRing) {
				s.ringExits++
			}
			if req.Flags&(router.Escape|router.EnterRing) == router.Escape {
				s.ringHops++
			}
			if !n.logGrants {
				continue
			}
			s.grs = append(s.grs, grantRec{born: p.Born, r: int32(r.ID), src: int32(p.Src), dst: int32(p.Dst),
				inPort: uint8(gr.InPort), inVC: uint8(gr.InVC), out: req.Out, vc: req.VC,
				eject: gr.Eject, detour: req.Flags&(router.SetGlobalMis|router.SetLocalMis|router.EnterRing) != 0})
		}
	}
}

// merge closes the window on the caller's goroutine, one cycle at a time in
// the serial order of a single cycle, each step in ascending group order:
// deliveries and drops, generation records, grants, then the cycle's wheel
// insertions — the events phase's before the router stage's, the order a
// cycle-at-a-time run appends them to the wheel's slots. Then the counter
// deltas are added, and the logs emptied for the next window.
func (n *Network) merge() {
	w := n.win
	n.wheel.Skip(w)
	clear(n.slots[:w])
	for k := 0; k < w; k++ {
		now := n.now + int64(k)
		t := n.clock(now)
		// One pass gathers the cycle's effects and the groups with records.
		fx, busy := n.fxBuf[:0], n.busy[:0]
		for g := range n.gs {
			s := &n.gs[g]
			a, b := &s.marks[k], &s.marks[k+1]
			if a.fx < b.fx {
				fx = append(fx, s.fx[a.fx:b.fx]...)
			}
			if a.gen < b.gen || a.gr < b.gr || a.out < b.out {
				busy = append(busy, s)
			}
		}
		n.mergeEffects(fx, now)
		t = lap(&n.laps.Events, t)
		for _, s := range busy {
			for i := s.marks[k].gen; i < s.marks[k+1].gen; i++ {
				n.commitGen(&s.gen[i], now)
			}
		}
		t = lap(&n.laps.Generate, t)
		for _, s := range busy {
			for i := s.marks[k].gr; i < s.marks[k+1].gr; i++ {
				n.commitGrant(&s.grs[i], now)
			}
		}
		for _, s := range busy {
			for _, e := range s.out[s.marks[k].out:s.marks[k].outR] {
				n.wheel.Schedule(int(e.at)-w, e.ev)
			}
		}
		for _, s := range busy {
			for _, e := range s.out[s.marks[k].outR:s.marks[k+1].out] {
				n.wheel.Schedule(int(e.at)-w, e.ev)
			}
		}
		lap(&n.laps.Routers, t)
		n.fxBuf, n.busy = fx[:0], busy[:0]
	}
	st := n.Stats
	for g := range n.gs {
		s := &n.gs[g]
		n.inFlight += s.inFlight
		n.CongestionStalls += s.congStalls
		st.SourceBlocked += s.blocked
		st.Injected += s.injected
		st.GlobalMisroutes += s.globalMis
		st.LocalMisroutes += s.localMis
		st.RingEnters += s.ringEnters
		st.RingExits += s.ringExits
		st.RingHops += s.ringHops
		s.tally = tally{}
		s.out, s.fx, s.gen = s.out[:0], s.fx[:0], s.gen[:0]
		s.pre, s.grs = s.pre[:0], s.grs[:0]
	}
	n.now += int64(w)
}

// mergeEffects folds one cycle's deliveries and drops, gathered in group
// order, into the digest and the statistics in due order, and recycles the
// packets into their source groups' pools (only here, on the caller's
// goroutine: until the merge the window's logs may still name them).
func (n *Network) mergeEffects(fx []fxRec, now int64) {
	if slices.ContainsFunc(fx, func(e fxRec) bool { return e.drop }) {
		slices.SortFunc(fx, func(a, b fxRec) int { return cmp.Compare(a.idx, b.idx) })
	}
	for _, e := range fx {
		if e.drop {
			n.dropPacket(e.pkt, now)
			continue
		}
		p := n.pkts.At(e.pkt)
		if n.digestOn {
			// Folding (identity, latency) pins per-packet delivery times, not
			// just the grant sequence.
			n.digest.fold(1, now, int64(p.Src), int64(p.Dst), p.Born, p.Injected)
		}
		if n.obs != nil {
			n.obs.deliver(now, p.Src, p.Dst, p.Born, p.Injected)
		}
		n.Stats.OnDeliver(p.Born, p.Injected, now, p.Hops(), int(p.RingHops))
		n.settled = now
		if p.Job >= 0 {
			n.Stats.JobDelivered(int(p.Job), now-p.Born)
		}
		n.poolG[p.SrcGroup].Free(e.pkt)
	}
}

// commitGen replays one generation record: stamp the packet's ID from the
// run-wide sequence and fold the observable effects.
func (n *Network) commitGen(rec *genRec, now int64) {
	if n.rec != nil {
		n.rec.Add(now, int(rec.node), int(rec.dst), n.Cfg.PacketSize)
	}
	if rec.pkt == packet.None {
		// Dead-destination drop: Generated and Dropped move together so
		// conservation holds without a packet.
		job := int32(-1)
		if n.jobOf != nil {
			job = n.jobOf[rec.node]
		}
		n.Stats.Generated++
		n.Stats.JobGenerated(int(job))
		n.dropped(now, rec.node, rec.dst, now, job)
		return
	}
	p := n.pkts.At(rec.pkt)
	p.ID = n.pool.NextID()
	if n.jobOf != nil {
		n.Stats.JobGenerated(int(p.Job))
	}
	n.Stats.Generated++
}

// commitGrant applies the observable half of one logged grant: digest,
// observer and fault-reroute attribution.
func (n *Network) commitGrant(g *grantRec, now int64) {
	if n.digestOn {
		n.digest.fold(0, now, int64(g.r), int64(g.inPort), int64(g.inVC),
			int64(g.out), int64(g.vc), int64(g.src), int64(g.dst), g.born)
	}
	if n.obs != nil {
		n.obs.grant(GrantEvent{Cycle: now, Router: g.r, InPort: g.inPort, InVC: g.inVC, Out: g.out, VC: g.vc,
			Src: g.src, Dst: g.dst, Born: g.born, Eject: g.eject})
	}
	if n.faultIdx > 0 && g.detour && n.Routers[g.r].Out[n.Topo.MinimalPort(int(g.r), int(g.dst))].Dead() {
		// The packet left its minimal path while the minimal output here is
		// dead: the fault, not ordinary congestion, forced the detour.
		n.Stats.FaultReroutes++
		n.Stats.NoteAffectedFlow(int(g.src), int(g.dst))
	}
}

// FailRingEdge breaks escape ring `ring` at the outgoing edge of `router`
// (§VII: "OFAR could block the system with more than a single failure in
// its Hamiltonian ring" — multiple embedded rings restore protection).
func (n *Network) FailRingEdge(ring, router int) {
	n.Routers[router].FailRing(ring)
}

// UtilizationByKind summarizes link utilization for one port class
// (requires Stats.EnableUtilization before the run). Unwired ports are
// excluded; physical escape-ring ports are reported under PortRing.
func (n *Network) UtilizationByKind(kind topology.PortKind) stats.UtilizationSummary {
	var counters []int64
	for _, r := range n.Routers {
		for port := range r.Out {
			if r.Out[port].Kind != kind {
				continue
			}
			counters = append(counters, n.Stats.Utilization(r.ID, port))
		}
	}
	return stats.SummarizeUtilization(counters, n.now)
}

// BufferedPackets counts packets stored in router buffers (a packet counts
// once per buffer it currently occupies; with link latencies ≥ packet size,
// as in every shipped configuration, that is exactly once).
func (n *Network) BufferedPackets() int {
	total := 0
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				total += r.In[i].VCs[vc].Len()
			}
		}
	}
	return total
}

// PendingPackets counts packets waiting in source queues.
func (n *Network) PendingPackets() int {
	total := 0
	for i := range n.pending {
		total += n.pending[i].len()
	}
	return total
}

// InFlightPackets counts packets currently traversing links.
func (n *Network) InFlightPackets() int { return n.inFlight }

// CheckConservation verifies that every generated packet is accounted for:
// delivered, explicitly dropped by a fault, waiting at a source, buffered in
// a router, or on a link.
func (n *Network) CheckConservation() error {
	inNet := int64(n.BufferedPackets() + n.InFlightPackets() + n.PendingPackets())
	if n.Stats.Generated != n.Stats.Delivered+n.Stats.Dropped+inNet {
		return fmt.Errorf("network: conservation violated: generated=%d delivered=%d dropped=%d in-system=%d",
			n.Stats.Generated, n.Stats.Delivered, n.Stats.Dropped, inNet)
	}
	if n.jobOf != nil {
		// Under a job-aware source every packet is tagged, so the per-job
		// terminal counters must partition the aggregates exactly.
		if err := n.Stats.CheckJobConservation(); err != nil {
			return err
		}
	}
	return nil
}
