package network

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"
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

type event struct {
	pkt   *packet.Packet
	r     int32
	port  int16
	vc    int16
	phits int32
	kind  evKind
}

// schedEv is one deferred wheel insertion: a pool worker appends these to
// its group's outbox instead of touching the shared timing wheel, and the
// caller merges the outboxes in ascending group order at the barrier —
// which, for router-stage insertions, is ascending router order (routers are
// numbered group-major), exactly the order the caller inserts them in when
// it walks the groups itself; event-phase insertions are credit events only,
// whose in-slot order is unobservable (credits commute and fold nothing).
type schedEv struct {
	ev    event
	delay int32
}

// Observable handle effects. The caller applies them inline when it walks
// the due list itself; pool workers record them per due-event index and the
// barrier applies them in ascending index order — the same order, regardless
// of which worker processed which group. fxNone slots are skipped.
const (
	fxNone uint8 = iota
	fxDeliver
	fxDrop
)

// genRec is one deferred generation event: a packet created by generateGroup
// (pkt != nil, ID not yet assigned) or a dead-destination drop that consumed
// a destination draw without allocating (pkt == nil). commitGenerate replays
// these in ascending (group, node) order to stamp IDs and fold the observable
// effects, whoever walked the groups.
type genRec struct {
	pkt  *packet.Packet
	node int32
	dst  int32
}

// groupScratch is one group's channel to the shared state — the
// wheel-insertion outbox, the generate-phase outbox and the counter deltas
// its phases accumulate while the shared counters are off limits — plus its
// injection front-end state, padded to whole cache lines so adjacent groups
// written by different workers never false-share. The pad is derived from the
// fields, and leads: a zero-length last field would itself be padded.
type groupScratch struct {
	_ [(64 - unsafe.Sizeof(groupState{})%64) % 64]byte
	groupState
}

type groupState struct {
	sched    []schedEv
	gen      []genRec
	inFlight int
	// Generate-phase counter deltas, merged into the run counters at the
	// barrier (their serial interleaving per node is unobservable — only the
	// running Generated count is, and genRec replay reproduces it exactly).
	blocked    int64
	injected   int64
	congStalls int64
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
	// list and carve blocks that group g's sources allocate from and its
	// terminal packets recycle into — so concurrent group shards never touch
	// a shared allocator, and block-carve locality follows the group.
	pool  packet.Pool
	poolG []packet.Pool

	// trafficRNG[g] is group g's traffic stream, derived deterministically
	// from the run seed (one stream per dragonfly group). Nodes of group g
	// draw from stream g in ascending node order — the same sequence whether
	// the caller or a pool worker walks the group.
	trafficRNG []*simcore.RNG
	pending    []pqueue
	gen        traffic.Generator
	genLocal   bool // generator implements traffic.GroupLocalGenerator
	groupNodes int  // nodes per group (Topo.P * Topo.A)
	now        int64
	usePB      bool
	inFlight   int

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
	// persistent worker pool (see pool.go) of `workers` participants with
	// per-worker engines (clones when the engine carries scratch state) and
	// the per-router grant buffers workers fill for the caller's commit; a
	// phase goes to the pool when it has at least `cutover` units of work
	// (see pooled) and is walked by the caller otherwise. workerPool is nil
	// on Workers <= 1 networks and after Close.
	workers    int
	workerEng  []router.Engine
	grantBuf   [][]router.Grant
	workerPool *stepPool
	cutover    int

	// Per-group state of the pipeline. dueG holds per-group indices into the
	// cycle's due list and fxKind/fxPkt the per-index deferred effects (both
	// used only when the pool runs the event phase); gs carries each group's
	// outboxes.
	nGroups   int
	groupSize int // routers per group (Topo.A)
	dueG      [][]int32
	curDue    []event // the due list being processed (pool workers read it)
	fxKind    []uint8
	fxPkt     []*packet.Packet
	gs        []groupScratch

	// Grant digest (tests): FNV-1a fold of every committed grant and every
	// delivery, for cheap bit-equivalence checks between engines.
	digestOn    bool
	digest      uint64
	digestCount int64

	// Grant log (tests): explicit record of committed grants, capped at
	// logCap events.
	grantLog []GrantEvent
	logCap   int

	// Path tracing (diagnostics/tests): when sampling is enabled, every
	// N-th generated packet records its full hop sequence.
	traceEvery int
	traces     map[packet.ID]*Trace

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

	// Per-phase Step timing (EnablePhaseTimings): wall-clock nanoseconds
	// accumulated per Step phase. Off by default — the flag costs a branch
	// per phase; when on, each Step pays a handful of clock reads.
	timingOn bool
	phaseNs  PhaseNanos
}

type pqueue struct {
	q    []*packet.Packet
	head int
}

func (p *pqueue) len() int              { return len(p.q) - p.head }
func (p *pqueue) push(x *packet.Packet) { p.q = append(p.q, x) }
func (p *pqueue) pop() *packet.Packet {
	x := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	} else if p.head > 64 && p.head*2 >= len(p.q) {
		n := copy(p.q, p.q[p.head:])
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
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

	// Input-buffer VC profiles per (router, input port); escape VCs of
	// embedded rings are appended to the canonical profile of the links
	// the ring traverses.
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
		for i := 0; i < vcs; i++ {
			p.caps[i] = buf
			p.ring[i] = ring
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
			case topology.PortNone:
				profs[r][port] = prof{}
			}
		}
	}
	if cfg.Ring == RingEmbedded {
		for j, rg := range n.Rings {
			for r := 0; r < topo.Routers; r++ {
				out := rg.EmbeddedPort(r)
				_, peer, peerPort := topo.Peer(r, out)
				pp := &profs[peer][peerPort]
				pp.caps = append(pp.caps, cfg.RingBuf)
				pp.ring = append(pp.ring, j)
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
	// its routers carve: one dragonfly group — the ownership unit of the Step
	// pipeline — then occupies a contiguous, cache-dense region instead of
	// ~a·(2+ports·(4+vcs)) scattered heap objects, and not a byte more.
	//
	// An engine that can report its Route read sets lets the routers memoize
	// decisions (Validate guarantees ≤ 64 ports). PAR mutates packet headers
	// mid-Route and stays uncached.
	_, cacheable := n.Engine.(router.CacheableEngine)
	cacheOn := cacheable && !cfg.DisableRouteCache
	params := func(r int) router.Params {
		ports := make([]router.PortSpec, nPorts)
		for port := 0; port < topo.RouterPorts; port++ {
			kind, peer, peerPort := topo.Peer(r, port)
			ps := router.PortSpec{Kind: kind, Latency: 1}
			switch kind {
			case topology.PortNode:
				ps.Peer, ps.PeerPort = -1, -1
				ps.UpRouter, ps.UpPort = -1, -1
				ps.InCaps, ps.InRing = profs[r][port].caps, profs[r][port].ring
				ps.OutCaps, ps.OutRing = []int{cfg.PacketSize}, []int{-1}
			case topology.PortNone:
				ps.Peer, ps.PeerPort = -1, -1
				ps.UpRouter, ps.UpPort = -1, -1
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
			size.Add(group[i], cacheOn)
		}
		n.arenas[g] = router.NewArena(size)
		for i := range group {
			r := g*topo.A + i
			group[i].Arena = n.arenas[g]
			n.Routers[r] = &routerSlab[r]
			router.NewInto(n.Routers[r], group[i])
		}
	}
	if cacheOn {
		// A second pass, so the cache arrays sit behind every router's
		// construction-time arrays in the group's slabs.
		for _, rt := range n.Routers {
			rt.EnableRouteCache()
		}
	}

	horizon := cfg.GlobalLatency
	if cfg.LocalLatency > horizon {
		horizon = cfg.LocalLatency
	}
	if cfg.PacketSize > horizon {
		horizon = cfg.PacketSize
	}
	n.wheel = simcore.NewWheel[event](horizon + 2)
	n.pending = make([]pqueue, topo.Nodes)
	n.Stats = stats.NewRun(topo.Nodes, cfg.PacketSize)
	if cfg.Congestion.Enabled {
		n.congestionOn = true
		n.congestionTh = cfg.Congestion.Threshold
		if n.congestionTh == 0 {
			n.congestionTh = 0.7
		}
	}
	n.nGroups = topo.G
	n.groupSize = topo.A
	n.groupNodes = topo.P * topo.A
	n.poolG = make([]packet.Pool, topo.G)
	n.dueG = make([][]int32, topo.G)
	n.gs = make([]groupScratch, topo.G)
	for g := range n.gs {
		n.gs[g].pend = make([]uint64, (n.groupNodes+63)/64)
	}
	if len(cfg.Faults) > 0 {
		if err := n.prepareFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	n.workers = cfg.PoolWidth()
	if n.workers > 1 {
		n.grantBuf = make([][]router.Grant, topo.Routers)
		n.workerEng = make([]router.Engine, n.workers)
		n.workerEng[0] = n.Engine
		for w := 1; w < n.workers; w++ {
			if c, ok := n.Engine.(router.ConcurrentCloner); ok {
				n.workerEng[w] = c.CloneForWorker()
			} else {
				// Stateless engines (all baselines) are shared.
				n.workerEng[w] = n.Engine
			}
		}
		n.cutover = autoCutover(n.workers)
		n.startPool(n.workers)
	}
	return n, nil
}

// autoCutover picks the amount of work (routers, due events) below which a
// Workers > 1 network walks a phase on the caller's goroutine, calibrated
// from the machine and the worker count rather than measured at runtime (a
// measurement would make wall-clock behavior depend on warm-up noise; the
// formula keeps it reproducible). Two regimes:
//
//   - GOMAXPROCS == 1: a pool dispatch can never win — the caller computes
//     every group itself and then pays goroutine switches just to join the
//     parked workers — so the cutover is pinned above any possible work count
//     and the caller walks every phase. (In-package tests that need the pool
//     exercised regardless override the cutover after construction.)
//
//   - multicore: a pool dispatch (wake + steal + join) costs a handful of
//     microseconds; one working router's compute phase costs ~1–2 µs
//     (saturated h=3: ~170 µs over 114 routers). Splitting across w workers
//     saves (1−1/w) of the compute, so the break-even amount of work is
//     barrier / (cost·(1−1/w)) ≈ a few units per worker; below it the
//     barrier is pure loss. 6·workers keeps a comfortable margin above
//     break-even.
//
// The cutover moves wall-clock time only; results are bit-identical on
// every machine either way.
func autoCutover(workers int) int {
	if runtime.GOMAXPROCS(0) < 2 {
		return math.MaxInt32
	}
	return 6 * workers
}

// pooled reports whether a phase with the given amount of work is stolen by
// the pool rather than walked by the caller. The event phase passes its due
// count; the phases that visit every router or node every cycle (generate,
// PB, routers) pass the router count: they go to the pool unless the network
// is tiny or the cutover pins it to the caller.
func (n *Network) pooled(work int) bool {
	return n.workerPool != nil && work >= n.cutover
}

// SetGenerator attaches the traffic source. A job-aware source additionally
// sizes the per-job statistics and installs the node→job table used to tag
// every generated packet; attaching a plain generator clears both.
func (n *Network) SetGenerator(g traffic.Generator) {
	n.gen = g
	_, n.genLocal = g.(traffic.GroupLocalGenerator)
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

// Step advances the simulation one cycle through the group-partitioned
// pipeline: apply due faults, deliver due events, generate and inject
// traffic, publish PB flags, then run routing and switch allocation on every
// router (an idle one returns at once). Each phase works group by group; the
// only fork is who walks the groups — the pool (Config.Workers > 1 and enough
// work, see pooled) or the caller in ascending order — and every effect on
// shared state is committed by the caller in a fixed order, so results are
// bit-identical either way (docs/ARCHITECTURE.md, "The Step pipeline").
func (n *Network) Step() {
	now := n.now
	var t time.Time
	if n.timingOn {
		t = time.Now()
		n.phaseNs.Cycles++
	}
	if n.faultIdx < len(n.faults) {
		n.applyDueFaults(now)
	}
	t = n.lap(&n.phaseNs.Faults, t)
	if due := n.wheel.Advance(); len(due) > 0 {
		n.processDue(due, now)
	}
	t = n.lap(&n.phaseNs.Events, t)
	if n.gen != nil {
		n.generate(now)
	}
	t = n.lap(&n.phaseNs.Generate, t)
	if n.usePB {
		n.publishPB(now)
	}
	t = n.lap(&n.phaseNs.PB, t)
	n.routerStage(now)
	n.lap(&n.phaseNs.Routers, t)
	n.now++
}

// routerStage runs the routing/allocation phase of one cycle: cycleGroup for
// every group, which commits as it goes when the caller walks and leaves the
// commit to an ordered commitGroup pass when the pool does.
func (n *Network) routerStage(now int64) {
	if !n.pooled(len(n.Routers)) {
		for g := 0; g < n.nGroups; g++ {
			n.cycleGroup(g, n.Engine, now, nil)
		}
		return
	}
	n.runShards(phaseCycle, now)
	for g := 0; g < n.nGroups; g++ {
		n.commitGroup(g, now)
	}
}

// processDue runs the event phase over one cycle's due list. The caller
// handles the events itself in ascending due order with every effect inline;
// the pool partitions the list by target group, handles each group's share
// concurrently and leaves the shared effects to a barrier here. The two agree
// because:
//
//   - Router mutations commute across groups: an event targets exactly one
//     router (arrivals and drains touch input buffers, credits touch output
//     ports), and same-router events touch disjoint (port, VC) state.
//   - Observable effects (delivery folds and stats, fault drops) are not
//     applied in processing order: they are recorded per due index and
//     applied in ascending index order afterwards — the caller's inline
//     order.
//   - Handle-phase wheel insertions are credit events only; their in-slot
//     order differs between the two walks, but credits fold nothing and
//     AddCredit is commutative (a sum plus idempotent dirty bits), so no
//     digest, stat or future decision can observe the shuffle.
func (n *Network) processDue(due []event, now int64) {
	if !n.pooled(len(due)) {
		for i := range due {
			n.handle(due[i], i, now, nil)
		}
		return
	}
	for g := range n.dueG {
		n.dueG[g] = n.dueG[g][:0]
	}
	gsz := int32(n.groupSize)
	for i := range due {
		g := due[i].r / gsz
		n.dueG[g] = append(n.dueG[g], int32(i))
	}
	if cap(n.fxKind) < len(due) {
		n.fxKind = make([]uint8, len(due))
		n.fxPkt = make([]*packet.Packet, len(due))
	} else {
		n.fxKind = n.fxKind[:len(due)]
		clear(n.fxKind)
		n.fxPkt = n.fxPkt[:len(due)]
	}
	n.curDue = due
	n.runShards(phaseHandle, now)
	n.curDue = nil
	// Merge the group outboxes in ascending group order: wheel insertions
	// (credit refunds) and in-flight deltas.
	for g := range n.gs {
		n.flushSched(g)
		n.inFlight += n.gs[g].inFlight
		n.gs[g].inFlight = 0
	}
	// Apply deferred effects in original due order (see above).
	for i, k := range n.fxKind {
		if k != fxNone {
			p := n.fxPkt[i]
			n.fxPkt[i] = nil
			n.applyEffect(k, p, now)
		}
	}
}

// sched inserts a wheel event directly (sh == nil: the caller is walking)
// or into the group's outbox (a pool worker, for which the shared wheel is
// off limits until the barrier).
func (n *Network) sched(sh *groupScratch, delay int, ev event) {
	if sh == nil {
		n.wheel.Schedule(delay, ev)
	} else {
		sh.sched = append(sh.sched, schedEv{ev: ev, delay: int32(delay)})
	}
}

// ActiveRouters reports how many routers hold a routable buffer head right
// now — the ones whose next Cycle does any work. A diagnostic scan, not on
// the Step path.
func (n *Network) ActiveRouters() int {
	total := 0
	for _, r := range n.Routers {
		if r.HasRoutableWork() {
			total++
		}
	}
	return total
}

// publishPB refreshes the group flag boards, group by group — on the pool
// whenever the cutover does not pin the network to the caller (the dirty
// scan is O(routers) every cycle, so the decision is static). A group's
// board is written only by that group's routers (UpdatePBFlags sets the
// router's own link flags), each router writes disjoint flag indices, and
// nothing reads any board during this phase — so the walk needs no outbox
// and no barrier merge.
func (n *Network) publishPB(now int64) {
	if n.pooled(len(n.Routers)) {
		n.runShards(phasePB, now)
		return
	}
	for g := 0; g < n.nGroups; g++ {
		n.publishPBGroup(g, now)
	}
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

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// Drained reports whether the generator is exhausted (or none is attached)
// and every generated packet was delivered or explicitly dropped by a fault.
func (n *Network) Drained() bool {
	return (n.gen == nil || n.gen.Done()) && n.Stats.Generated == n.Stats.Delivered+n.Stats.Dropped
}

// RunUntilDrained steps until the generator is exhausted and every packet
// has been delivered, or maxCycles elapse. It returns true when drained.
func (n *Network) RunUntilDrained(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if n.Drained() {
			return true
		}
		n.Step()
	}
	return n.Drained()
}

// Trace is the recorded journey of one packet.
type Trace struct {
	Src, Dst int
	Hops     []TraceHop
	Done     bool
	Dropped  bool // lost to an injected fault
}

// TraceHop is one crossbar transfer: the router, the output port taken and
// whether it was an escape-channel move.
type TraceHop struct {
	Router int
	Port   int
	VC     int
	Escape bool
	Cycle  int64
}

// EnableTracing records the full path of every N-th generated packet
// (N ≤ 1 traces everything). Intended for tests and debugging; tracing
// allocates per packet.
func (n *Network) EnableTracing(every int) {
	if every < 1 {
		every = 1
	}
	n.traceEvery = every
	n.traces = make(map[packet.ID]*Trace)
}

// Traces returns the recorded packet journeys (nil unless enabled).
func (n *Network) Traces() map[packet.ID]*Trace { return n.traces }

// GrantEvent is one committed crossbar transfer as recorded by the grant
// log: the granting router, the input buffer, the output assignment and the
// packet identity (source, destination, generation cycle — stable across
// engines, unlike pool-recycled pointers).
type GrantEvent struct {
	Cycle  int64 `json:"t"`
	Router int   `json:"r"`
	InPort int   `json:"ip"`
	InVC   int   `json:"iv"`
	Out    int   `json:"o"`
	VC     int   `json:"v"`
	Src    int   `json:"s"`
	Dst    int   `json:"d"`
	Born   int64 `json:"b"`
	Eject  bool  `json:"e,omitempty"`
}

// EnableGrantDigest folds every committed grant and every delivery into a
// running FNV-1a digest. Comparing digests after each cycle proves two runs
// produce identical grant sequences and packet latencies without storing
// the streams (the equivalence and golden-trace tests rely on this).
func (n *Network) EnableGrantDigest() {
	n.digestOn = true
	n.digest = fnvOffset
}

// GrantDigest returns the running digest and the number of events folded
// into it (grants + deliveries).
func (n *Network) GrantDigest() (uint64, int64) { return n.digest, n.digestCount }

// EnableGrantLog records up to max committed grants verbatim (the digest
// keeps covering everything beyond the cap). Intended for golden-trace
// tests; logging allocates.
func (n *Network) EnableGrantLog(max int) {
	n.logCap = max
	n.grantLog = make([]GrantEvent, 0, max)
	if !n.digestOn {
		n.EnableGrantDigest()
	}
}

// GrantLog returns the recorded grant events.
func (n *Network) GrantLog() []GrantEvent { return n.grantLog }

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

// fold folds each value's eight little-endian bytes into the digest; the zero
// bytes above the last significant one go in as one multiplication.
func (n *Network) fold(vs ...int64) {
	h := n.digest
	for _, v := range vs {
		k := 8
		for x := uint64(v); x != 0; x >>= 8 {
			h = (h ^ (x & 0xff)) * fnvPrime
			k--
		}
		h *= fnvPow[k]
	}
	n.digest = h
	n.digestCount++
}

// handle processes one due event. Everything it mutates directly is owned by
// the event's group: the target router (every event targets exactly one).
// Whatever is shared goes through sh: the caller walking the due list in
// order passes nil and wheel insertions, the in-flight counter and observable
// effects apply inline; a pool worker passes its group's scratch and they
// wait for the barrier in processDue.
func (n *Network) handle(ev event, idx int, now int64, sh *groupScratch) {
	switch ev.kind {
	case evArrive:
		n.addInFlight(sh, -1)
		if n.deadRouter != nil && n.deadRouter[ev.r] {
			// The packet was launched before the router died; the link
			// delivered it into a void. No credit refund: the upstream port
			// is dead and its counters are frozen.
			n.effect(sh, idx, fxDrop, ev.pkt, now)
			return
		}
		if n.deadNode != nil && n.deadNode[ev.pkt.Dst] {
			// The destination died while the packet was en route. Drop it
			// here rather than let it chase an unreachable ejection port —
			// with a synthesized refund, since the buffer space it reserved
			// on this live router is never consumed.
			up := &n.Routers[ev.r].In[ev.port]
			if up.UpRouter >= 0 {
				n.sched(sh, 0, event{kind: evCredit, r: int32(up.UpRouter), port: int16(up.UpPort), vc: ev.vc, phits: int32(ev.pkt.Size)})
			}
			n.effect(sh, idx, fxDrop, ev.pkt, now)
			return
		}
		n.Routers[ev.r].Arrive(int(ev.port), int(ev.vc), ev.pkt)
	case evDrain, evDrainDeliver:
		r := n.Routers[ev.r]
		p, upR, upP := r.FinishDrain(int(ev.port), int(ev.vc))
		if ev.kind == evDrain {
			// The packet has fully left this buffer and is now only on the
			// link (its arrival event is pending); with link latencies ≥
			// packetSize-1 — true for all shipped configurations — this
			// keeps the conservation accounting exact.
			n.addInFlight(sh, 1)
		}
		if upR >= 0 && (n.deadRouter == nil || !n.deadRouter[ev.r]) {
			// Dead routers return no credits: their upstream ports are dead
			// with frozen counters — except a re-formed ring predecessor,
			// whose counters were re-derived against the new downstream
			// buffer and must not absorb refunds for the old one.
			lat := n.Routers[upR].Out[upP].Latency
			n.sched(sh, lat-1, event{kind: evCredit, r: int32(upR), port: int16(upP), vc: ev.vc, phits: int32(p.Size)})
		}
		if ev.kind == evDrainDeliver {
			p.Done = now
			n.effect(sh, idx, fxDeliver, p, now)
		}
	case evCredit:
		n.Routers[ev.r].AddCredit(int(ev.port), int(ev.vc), int(ev.phits))
	}
}

// addInFlight moves the on-link packet count: directly, or as a group delta
// merged at the barrier.
func (n *Network) addInFlight(sh *groupScratch, d int) {
	if sh == nil {
		n.inFlight += d
	} else {
		sh.inFlight += d
	}
}

// effect applies one observable handle effect now (sh == nil) or records it
// under its due index for the barrier to apply in due order.
func (n *Network) effect(sh *groupScratch, idx int, kind uint8, p *packet.Packet, now int64) {
	if sh == nil {
		n.applyEffect(kind, p, now)
	} else {
		n.fxKind[idx], n.fxPkt[idx] = kind, p
	}
}

// applyEffect folds one delivery or fault drop into the digest and the
// statistics and recycles the packet. Caller's goroutine only.
func (n *Network) applyEffect(kind uint8, p *packet.Packet, now int64) {
	if kind == fxDrop {
		n.dropPacket(p, now)
		return
	}
	if n.digestOn {
		// Folding (identity, latency) pins per-packet delivery times, not
		// just the grant sequence.
		n.fold(1, now, int64(p.Src), int64(p.Dst), p.Born, p.Injected)
	}
	n.Stats.OnDeliver(p.Born, p.Injected, now, p.TotalHops, p.RingHops)
	if p.Job >= 0 {
		n.Stats.JobDelivered(int(p.Job), now-p.Born)
	}
	n.putPacket(p)
}

// generate runs the injection front-end for one cycle: generateGroup over
// every group, then commitGenerate. The pool takes the groups when the
// source is group-local and the cutover does not pin the network to the
// caller (every node is probed every cycle, so there is no per-cycle work
// count to compare — the decision is static); otherwise the caller walks
// them in ascending order. Either way the same draws come from the same
// per-group streams, because:
//
//   - Per-node work is group-local: Next/Retract draw from the group's own
//     stream (and, for GroupLocalGenerator sources, touch only per-node or
//     commutative-atomic generator state), the pending queue and the
//     injection router belong to the node's own group, and packets come from
//     the group's own pool. Nothing one group does can change what another
//     group generates or injects this cycle.
//   - Observable effects are not applied in processing order: packet IDs,
//     Stats counters, digest folds, trace-recorder appends and job
//     accounting are recorded per group (genRec) and replayed by
//     commitGenerate in ascending (group, node) order, including the running
//     Generated count the path-trace sampler reads.
//   - The remaining counters (SourceBlocked, Injected, CongestionStalls) are
//     plain sums with no intermediate observer, so per-group accumulation
//     plus an ordered merge is invisible.
//
// Generators without the GroupLocalGenerator marker (Burst, JobSet — shared
// plain-int progress counters) are always walked by the caller.
func (n *Network) generate(now int64) {
	if n.genLocal && n.pooled(len(n.Routers)) {
		n.runShards(phaseGenerate, now)
	} else {
		for g := 0; g < n.nGroups; g++ {
			n.generateGroup(g, n.Engine, now)
		}
	}
	n.commitGenerate(now)
}

// generateGroup generates and injects for every node of group g in ascending
// node order. Every observable effect is buffered: packets leave the group's
// pool without an ID (commitGenerate stamps IDs in global order),
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
func (n *Network) generateGroup(g int, eng router.Engine, now int64) {
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
			sh.gen = append(sh.gen, genRec{node: h.Node, dst: h.Dst})
		} else if pq.len() >= n.Cfg.PendingCap {
			n.gen.Retract(node)
			sh.blocked++
		} else {
			p := n.poolG[g].GetBlank()
			p.Size = n.Cfg.PacketSize
			p.Src, p.Dst = node, dst
			p.SrcGroup = g
			p.DstGroup = topo.GroupOfNode(dst)
			p.Born = now
			if n.jobOf != nil {
				p.Job = n.jobOf[node]
			}
			pq.push(p)
			sh.setPend(node-lo, true)
			sh.gen = append(sh.gen, genRec{pkt: p, node: h.Node, dst: h.Dst})
		}
	}

	// Inject: sources with a packet waiting (never dead: failRouter drops its queue).
	for w := range sh.pend {
		for word := sh.pend[w]; word != 0; word &= word - 1 {
			node := lo + w<<6 + bits.TrailingZeros64(word)
			pq := &n.pending[node]
			p := pq.q[pq.head]
			r := n.Routers[topo.RouterOf(node)]
			if n.congestionOn && r.CanonicalOccupancy() >= n.congestionTh {
				sh.congStalls++
				continue
			}
			port := topo.NodePort(topo.NodeSlot(node))
			if vc, ok := r.InjectionSpace(port, p.Size); ok {
				pq.pop()
				sh.setPend(node-lo, pq.len() > 0)
				r.Inject(port, vc, p, now)
				eng.AtInjection(r, p, now)
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

// commitGenerate closes the generate phase on the caller's goroutine: walk
// groups in ascending order replaying each group's genRec entries in node
// order — stamping packet IDs from the run-wide sequence and folding the
// observable effects — then merge the counter deltas.
func (n *Network) commitGenerate(now int64) {
	for g := 0; g < n.nGroups; g++ {
		sh := &n.gs[g]
		for i := range sh.gen {
			rec := &sh.gen[i]
			if rec.pkt == nil {
				// Dead-destination drop: Generated and Dropped move together
				// so conservation holds without a packet.
				n.Stats.Generated++
				n.Stats.Dropped++
				n.Stats.NoteAffectedFlow(int(rec.node), int(rec.dst))
				if n.jobOf != nil {
					j := int(n.jobOf[rec.node])
					n.Stats.JobGenerated(j)
					n.Stats.JobDropped(j)
				}
				if n.rec != nil {
					n.rec.Add(now, int(rec.node), int(rec.dst), n.Cfg.PacketSize)
				}
				if n.digestOn {
					n.fold(2, now, int64(rec.node), int64(rec.dst), now)
				}
				continue
			}
			p := rec.pkt
			p.ID = n.pool.NextID()
			rec.pkt = nil
			if n.jobOf != nil {
				n.Stats.JobGenerated(int(p.Job))
			}
			if n.rec != nil {
				n.rec.Add(now, int(rec.node), int(rec.dst), n.Cfg.PacketSize)
			}
			if n.traceEvery > 0 && n.Stats.Generated%int64(n.traceEvery) == 0 {
				n.traces[p.ID] = &Trace{Src: int(rec.node), Dst: int(rec.dst)}
			}
			n.Stats.Generated++
		}
		sh.gen = sh.gen[:0]
		n.Stats.SourceBlocked += sh.blocked
		n.Stats.Injected += sh.injected
		n.CongestionStalls += sh.congStalls
		sh.blocked, sh.injected, sh.congStalls = 0, 0, 0
	}
}

// putPacket recycles a terminal packet into its source group's pool, keeping
// the free list (and the block-carve locality it preserves) with the group
// that allocated the packet. Caller's goroutine only (delivery folds, fault
// drops).
func (n *Network) putPacket(p *packet.Packet) {
	n.poolG[p.SrcGroup].Put(p)
}

// commitSched schedules a grant's future events: into the wheel directly
// (sh == nil, the caller walking the groups) or into the group outbox a pool
// worker hands in.
func (n *Network) commitSched(r *router.Router, g *router.Grant, now int64, sh *groupScratch) {
	p := g.Pkt
	if g.Eject {
		n.sched(sh, p.Size-1, event{kind: evDrainDeliver, r: int32(r.ID), port: int16(g.InPort), vc: int16(g.InVC)})
	} else {
		out := &r.Out[g.Req.Out]
		n.sched(sh, out.Latency, event{kind: evArrive, pkt: p, r: int32(out.Peer), port: int16(out.PeerPort), vc: int16(g.Req.VC)})
		n.sched(sh, p.Size-1, event{kind: evDrain, r: int32(r.ID), port: int16(g.InPort), vc: int16(g.InVC)})
	}
}

// commitStats is the observable half of a grant — digest, grant log, traces,
// statistics, fault-reroute attribution — applied on the caller's goroutine
// in ascending router order.
func (n *Network) commitStats(r *router.Router, g *router.Grant, now int64) {
	p := g.Pkt
	if n.digestOn {
		n.fold(0, now, int64(r.ID), int64(g.InPort), int64(g.InVC),
			int64(g.Req.Out), int64(g.Req.VC), int64(p.Src), int64(p.Dst), p.Born)
		if len(n.grantLog) < n.logCap {
			n.grantLog = append(n.grantLog, GrantEvent{
				Cycle: now, Router: r.ID, InPort: g.InPort, InVC: g.InVC,
				Out: g.Req.Out, VC: g.Req.VC,
				Src: p.Src, Dst: p.Dst, Born: p.Born, Eject: g.Eject,
			})
		}
	}
	if n.traceEvery > 0 {
		if tr, ok := n.traces[p.ID]; ok {
			tr.Hops = append(tr.Hops, TraceHop{
				Router: r.ID, Port: g.Req.Out, VC: g.Req.VC,
				Escape: g.Req.Escape, Cycle: now,
			})
			if g.Eject {
				tr.Done = true
			}
		}
	}
	n.Stats.AddUtilization(r.ID, g.Req.Out, p.Size)
	if g.Req.SetGlobalMis {
		n.Stats.GlobalMisroutes++
	}
	if g.Req.SetLocalMis {
		n.Stats.LocalMisroutes++
	}
	if g.Req.EnterRing {
		n.Stats.RingEnters++
	}
	if g.Req.ExitRing {
		n.Stats.RingExits++
	}
	if g.Req.Escape && !g.Req.EnterRing {
		n.Stats.RingHops++
	}
	if n.faultIdx > 0 && (g.Req.SetGlobalMis || g.Req.SetLocalMis || g.Req.EnterRing) &&
		r.OutputDead(n.Topo.MinimalPort(r.ID, p.Dst)) {
		// The packet left its minimal path while the minimal output here is
		// dead: the fault, not ordinary congestion, forced the detour.
		n.Stats.FaultReroutes++
		n.Stats.NoteAffectedFlow(p.Src, p.Dst)
	}
}

// cycleGroup runs one group's router stage: Cycle each of the group's routers
// with the walker's engine and commit its grants. The caller (sh == nil)
// commits both halves of a grant on the spot; a pool worker schedules into
// its group's outbox and parks the grants in grantBuf for commitGroup.
// Everything a worker writes — the group's routers, their grantBuf rows, the
// outbox — is owned by this group.
//
// grantBuf rows alias the grant slices Cycle itself reuses across cycles;
// they are never cleared, because every router of the group writes its row
// here each cycle (an idle router's Cycle returns an empty list) before
// commitGroup reads it.
func (n *Network) cycleGroup(g int, eng router.Engine, now int64, sh *groupScratch) {
	lo := g * n.groupSize
	for i := lo; i < lo+n.groupSize; i++ {
		r := n.Routers[i]
		grants := r.Cycle(eng, now)
		if sh != nil {
			n.grantBuf[i] = grants
		}
		for j := range grants {
			n.commitSched(r, &grants[j], now, sh)
			if sh == nil {
				n.commitStats(r, &grants[j], now)
			}
		}
	}
}

// commitGroup closes a pool-walked group's router stage on the caller's
// goroutine: commit the grants' observable half in router order, then merge
// the group's outbox into the wheel. Called for groups in ascending order,
// this reproduces the caller's own ascending-router fold and wheel-insertion
// order.
func (n *Network) commitGroup(g int, now int64) {
	lo := g * n.groupSize
	for i := lo; i < lo+n.groupSize; i++ {
		r := n.Routers[i]
		grants := n.grantBuf[i]
		for j := range grants {
			n.commitStats(r, &grants[j], now)
		}
	}
	n.flushSched(g)
}

// flushSched merges group g's wheel-insertion outbox into the wheel.
func (n *Network) flushSched(g int) {
	sh := &n.gs[g]
	for _, se := range sh.sched {
		n.wheel.Schedule(int(se.delay), se.ev)
	}
	sh.sched = sh.sched[:0]
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
