// Package core implements OFAR — On-the-Fly Adaptive Routing — the paper's
// primary contribution (§IV): a flow-control/routing mechanism for dragonfly
// networks that decouples virtual-channel usage from deadlock avoidance.
//
// OFAR misroutes packets in transit, locally (around a saturated local link,
// once per group) or globally (to a random intermediate group, once per
// packet and only from the source group), based purely on the occupancy of
// the current router's output queues compared against two thresholds. A
// Hamiltonian escape ring with bubble (restricted-injection) flow control
// guarantees deadlock freedom, so canonical VCs exist only to reduce
// head-of-line blocking.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// Config holds OFAR's tunables. The paper's evaluation (§V) uses the
// variable threshold policy Th_min = 0 %, Th_non-min = 0.9 · Q_min.
type Config struct {
	// ThMin is the occupancy fraction the minimal output queue must reach
	// before misrouting is considered (in addition to the minimal port
	// being unavailable). Route reads it only under the variable policy
	// (StaticNonMin < 0), where 0 reproduces the paper's Th_min = 0. The
	// static policy ignores it: its trigger is the packet's class VC on the
	// minimal port being out of credits, which is the static example's
	// Th_min = 100 % whatever ThMin holds.
	ThMin float64

	// NonMinFactor is the variable threshold factor: a non-minimal output
	// is a misroute candidate when its occupancy ≤ NonMinFactor · Q_min.
	NonMinFactor float64

	// StaticNonMin, when ≥ 0, replaces the variable threshold with a fixed
	// occupancy bound (e.g. 0.40).
	StaticNonMin float64

	// LocalMisroute enables in-transit local misrouting; false yields the
	// OFAR-L model used in the paper to dissect local-misroute benefits.
	// network.New sets it from Config.Routing (true for OFAR, false for
	// OFAR-L), so the value a network config or config file gives here is
	// ignored.
	LocalMisroute bool

	// EscapeTimeout is how many consecutive blocked cycles a head packet
	// tolerates before requesting the escape ring. 0 requests the ring as
	// soon as neither the minimal port nor any misroute candidate can
	// accept the packet; a negative value disables the escape network
	// (only safe for experiments that cannot deadlock).
	EscapeTimeout int

	// MaxRingExits bounds how many times a packet may leave the escape
	// ring (§IV-C livelock guard). Once exhausted the packet rides the
	// ring to its destination router, which the Hamiltonian ring always
	// reaches. At most MaxRingExitsCap.
	MaxRingExits int

	// LeastOccupied selects the least-occupied misroute candidate instead
	// of a random one. The paper argues this is the WRONG choice ("always
	// selecting the least congested output would not be appropriate, since
	// multiple input ports could compete for the same output", §IV-B); the
	// option exists to test that claim (see BenchmarkAblationSelection).
	LeastOccupied bool
}

// DefaultConfig returns the repository's default OFAR tuning: the §IV-B
// static threshold policy (Th_min = 100 %, Th_non-min = 40 %): misroute
// only when the minimal output has no credits left, to outputs with at
// least 60 % of their credit count available. The static policy's trigger
// is that credit check, not ThMin, which it never reads; ThMin is 1.0 only
// to record the example's Th_min.
//
// The paper's own evaluation used the variable policy (Th_min = 0,
// Th_non-min = 0.9·Q_min — set ThMin: 0, NonMinFactor: 0.9,
// StaticNonMin: -1 to select it), chosen "empirically, by simulating the
// network with variable threshold factors, and selecting a reasonable
// trade-off between the performance in adversarial and uniform traffic
// patterns" (§V). Running the same empirical selection against this
// repository's router model picks the static policy: it matches the
// variable policy on adversarial traffic (h=6 ADV+6: 0.391 vs 0.400) and
// is dramatically more robust under saturated uniform traffic (h=6 UN at
// offered 1.0: stable 0.615 vs a misroute-storm collapse), because it only
// misroutes on genuine credit exhaustion rather than on port-busy noise.
func DefaultConfig() Config {
	return Config{
		ThMin:         1.0,
		NonMinFactor:  0.9,
		StaticNonMin:  0.4,
		LocalMisroute: true,
		EscapeTimeout: 32,
		MaxRingExits:  16,
	}
}

// VariablePolicyConfig returns the paper's §V variable-threshold tuning
// (Th_min = 0, Th_non-min = 0.9·Q_min).
func VariablePolicyConfig() Config {
	cfg := DefaultConfig()
	cfg.ThMin = 0
	cfg.StaticNonMin = -1
	return cfg
}

// MaxRingExitsCap bounds MaxRingExits so a packet's 16-bit hop counters
// cannot wrap. A packet leaves the ring at most MaxRingExits+1 times (the
// last exit may be its ejection), and between two exits it takes at most 6
// local and 2 global canonical hops: one global misroute per packet, one
// local misroute per group, minimal hops otherwise. So RingExits ≤ 4,097
// and LocalHops ≤ 6·(4,096+2) < 2^15.
const MaxRingExitsCap = 4096

// Validate reports a policy with no usable non-minimal threshold — a
// negative StaticNonMin selects the variable policy, which needs
// NonMinFactor > 0 — or an exit budget above MaxRingExitsCap.
func (c Config) Validate() error {
	if c.NonMinFactor <= 0 && c.StaticNonMin < 0 {
		return fmt.Errorf("no usable non-minimal threshold: NonMinFactor %v with StaticNonMin %v (a negative StaticNonMin selects the variable policy, which needs NonMinFactor > 0)",
			c.NonMinFactor, c.StaticNonMin)
	}
	if c.MaxRingExits > MaxRingExitsCap {
		return fmt.Errorf("MaxRingExits %d above %d: a packet's hop counters could wrap", c.MaxRingExits, MaxRingExitsCap)
	}
	return nil
}

// OFAR is the routing engine. It is stateless: one instance serves every
// router and every pool worker, and each Route call records what it read on
// the router it routes (router.Router.NoteRead and friends).
type OFAR struct {
	cfg Config
	d   *topology.Dragonfly
}

// New builds an OFAR engine for a topology from a validated config (see
// Config.Validate). With cfg.LocalMisroute == false the engine is the OFAR-L
// model.
func New(d *topology.Dragonfly, cfg Config) *OFAR {
	return &OFAR{cfg: cfg, d: d}
}

// AtInjection implements router.Engine. OFAR takes no decision at injection
// time — that is the point of the mechanism.
func (e *OFAR) AtInjection(*router.Router, *packet.Packet, int64) {}

// chooseVC picks the downstream VC for a canonical hop. OFAR does not need
// VC ordering for deadlock freedom, but it keeps the baselines' hop-class
// assignment (local VC = global hops taken, global VC = global hops taken):
// the paper states the VCs are retained "to reduce HOL blocking" (§V), and
// the hop-class discipline additionally keeps the canonical traffic almost
// acyclic, so cyclic buffer waits — which only the escape ring can resolve —
// stay rare events instead of an absorbing congestion state. Misrouted
// packets reuse the class of their current phase (extra local hops do not
// advance the class), which is where the residual cycles the ring exists
// for can come from.
func chooseVC(rt *router.Router, port int, p *packet.Packet, now int64) (int, bool) {
	op := &rt.Out[port]
	if op.Kind == topology.PortNode {
		return 0, !op.Busy(now)
	}
	if op.Kind == topology.PortNone || op.Busy(now) {
		return -1, false
	}
	vc := op.ClassVC(int(p.GlobalHops))
	if op.EscapeRing(vc) >= 0 || op.Credits(vc) < 1 {
		return -1, false
	}
	return vc, true
}

// Route implements router.Engine (paper §IV-A/B).
func (e *OFAR) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	rt.NoteExpiry(math.MaxInt64)
	if in.Ring >= 0 {
		return e.routeOnRing(rt, in, p, now)
	}
	min := e.d.MinimalPort(rt.ID, int(p.Dst))
	rt.NoteRead(min)
	op := &rt.Out[min]
	if op.Kind == topology.PortNode {
		// At the destination router: eject, or wait for a busy ejector,
		// which drains at 1 phit/cycle.
		return router.Request{Out: uint8(min)}, !op.Busy(now)
	}
	// chooseVC and the misroute trigger's VCFits, on one read of the port.
	vc := op.ClassVC(int(p.GlobalHops))
	credits := op.Credits(vc)
	if !op.Busy(now) && op.EscapeRing(vc) < 0 && credits >= 1 {
		return router.Request{Out: uint8(min), VC: uint8(vc)}, true
	}
	minKind := e.d.PortKindOf(min)
	// The minimal port is unavailable (assigned to another packet or out of
	// credits). Decide whether misrouting is allowed:
	//
	// Static policy (§IV-B example, Th_min = 100%): "misroute only occurs
	// when the minimal path has no credits left" — the packet's class VC on
	// the minimal port is credit-exhausted — "using an output with at least
	// 60% of its credit count available": candidate aggregate occupancy
	// ≤ StaticNonMin.
	//
	// Variable policy (§V default): allowed whenever the minimal port is
	// unavailable and Q_min ≥ Th_min, with candidates strictly below
	// NonMinFactor·Q_min ("less than 0.9 times the occupancy of the
	// minimal one"). The strictness matters: with an empty minimal queue
	// nothing qualifies, so a mere serialization collision does not
	// trigger misrouting — only real backlog does.
	//
	// Occupancy is the aggregate canonical occupancy of a port (OutPort.Occupancy;
	// §IV-B compares "the percentage of buffer occupancy" of whole queues).
	// Aggregating across the port's VCs pools 3 VCs (12 packets) of signal,
	// which discriminates a genuinely saturated hotspot (ADV+h: the l2 port
	// is full across classes while alternatives idle) from
	// symmetric-overload noise (UN: every port's class VC oscillates around
	// full while aggregates stay comparable). The class-VC-granular checks
	// remain where the physical resource matters: the misroute trigger
	// (VCFits on the class VC; a dead port never fits, which is what turns a
	// failed minimal link into a trigger under the static policy) and the
	// candidate headroom filter.
	minFull := op.Dead() || credits < 1
	if e.cfg.StaticNonMin >= 0 {
		if minFull {
			if req, ok := e.misroute(rt, in, p, min, minKind, minFull, e.cfg.StaticNonMin, false, now); ok {
				return req, true
			}
		}
	} else if qmin := op.Occupancy(); qmin >= e.cfg.ThMin {
		th := e.cfg.NonMinFactor * qmin
		if req, ok := e.misroute(rt, in, p, min, minKind, minFull, th, true, now); ok {
			return req, true
		}
	}
	// Last resort: the escape ring, once the packet has been blocked long
	// enough. Ring entry demands a two-packet bubble (§IV-C).
	if e.cfg.EscapeTimeout >= 0 && rt.NumRings() > 0 {
		if now-p.BlockedSince >= int64(e.cfg.EscapeTimeout) {
			if ring, port, vc, ok := e.pickRing(rt, now); ok {
				return router.Request{Out: uint8(port), VC: uint8(vc), Ring: int8(ring), Flags: router.Escape | router.EnterRing}, true
			}
		} else {
			// Not blocked long enough yet: the decision flips by time alone
			// when the threshold is crossed, so the cache must expire there.
			rt.NoteExpiry(p.BlockedSince + int64(e.cfg.EscapeTimeout))
		}
	}
	return router.Request{}, false
}

// routeOnRing handles packets stored in escape channels: leave the ring as
// soon as a minimal output is available (within the exit budget), otherwise
// advance along the ring under the one-packet bubble rule.
func (e *OFAR) routeOnRing(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	min := e.d.MinimalPort(rt.ID, int(p.Dst))
	minKind := e.d.PortKindOf(min)
	// Ejection at the destination router is always permitted regardless of
	// the exit budget; otherwise the packet could never leave the network.
	if int(p.RingExits) < e.cfg.MaxRingExits || minKind == topology.PortNode {
		rt.NoteRead(min)
		if vc, ok := chooseVC(rt, min, p, now); ok {
			return router.Request{Out: uint8(min), VC: uint8(vc), Flags: router.ExitRing}, true
		}
	}
	port, vc, credits, ok := rt.RingOut(in.Ring)
	if ok {
		rt.NoteRead(port) // a dead ring edge (ok == false) never heals; no read
		if credits >= 1 && !rt.Out[port].Busy(now) {
			return router.Request{Out: uint8(port), VC: uint8(vc), Ring: int8(in.Ring), Flags: router.Escape}, true
		}
	}
	return router.Request{}, false
}

// misroute applies the §IV-A policy to choose the set of non-minimal
// candidate ports, then requests a random candidate below the occupancy
// threshold.
//
// Policy summary:
//   - traffic internal to the destination group, or transiting a group that
//     is not its source: only local misroute, and only when the minimal
//     output is a (saturated) local port;
//   - in the source group: packets in injection queues misroute globally,
//     packets in local queues misroute locally first and globally second
//     (the order prevents starvation of the saturated router's own nodes).
//
// minFull is whether the packet's hop-class VC on the minimal port is out
// of credits (or the port is dead), which Route has already checked.
func (e *OFAR) misroute(rt *router.Router, in router.InCtx, p *packet.Packet, min int, minKind topology.PortKind, minFull bool, th float64, strict bool, now int64) (router.Request, bool) {
	g := rt.Group
	// Local misrouting requires the minimal local port to be *saturated*
	// (§IV-A: "only local misrouting is allowed when the minimal output is
	// a saturated local port"): the hop-class VC must be out of credits,
	// not merely busy serializing another packet. A collision is resolved
	// by waiting a few cycles; real backlog is what local detours exist
	// for. Global misrouting keeps the weaker busy-or-full trigger — it is
	// the load-balancing decision, and deferring it to credit exhaustion
	// would recreate injection-time routing.
	localSat := minKind == topology.PortLocal && minFull
	tryLocal, tryGlobal := false, false
	switch {
	case int(p.DstGroup) == g:
		tryLocal = e.cfg.LocalMisroute && p.MisrouteGroup < 0 && localSat
	case int(p.SrcGroup) == g:
		if in.Kind == topology.PortNode {
			tryGlobal = !p.GlobalMisrouted
		} else if e.cfg.LocalMisroute && p.MisrouteGroup < 0 && localSat {
			tryLocal = true
		} else {
			tryGlobal = !p.GlobalMisrouted
		}
	default: // intermediate group
		tryLocal = e.cfg.LocalMisroute && p.MisrouteGroup < 0 && localSat
	}
	if tryLocal {
		if req, ok := e.pickAmong(rt, e.d.LocalPortBase(), e.d.A-1, min, th, strict, p, now); ok {
			req.Flags = router.SetLocalMis
			return req, true
		}
	}
	if tryGlobal {
		if req, ok := e.pickAmong(rt, e.d.GlobalPortBase(), e.d.H, min, th, strict, p, now); ok {
			req.Flags = router.SetGlobalMis
			return req, true
		}
	}
	return router.Request{}, false
}

// pickAmong selects uniformly at random among the misroute candidates in
// [base, base+count) (router.Router.Candidates) other than the minimal
// port: the draw takes the k-th candidate in ascending port order. Random
// selection (rather than least-occupied) avoids synchronized convergence of
// many inputs on the same output (§IV-B).
func (e *OFAR) pickAmong(rt *router.Router, base, count, exclude int, th float64, strict bool, p *packet.Packet, now int64) (router.Request, bool) {
	hops := int(p.GlobalHops)
	m := rt.Candidates(base, count, hops, th, strict, now) &^ (1 << uint(exclude))
	if m == 0 {
		return router.Request{}, false
	}
	port := bits.TrailingZeros64(m)
	if e.cfg.LeastOccupied {
		best := rt.Out[port].Occupancy()
		for m &= m - 1; m != 0; m &= m - 1 {
			if c := bits.TrailingZeros64(m); rt.Out[c].Occupancy() < best {
				port, best = c, rt.Out[c].Occupancy()
			}
		}
	} else {
		for k := rt.RandInt(bits.OnesCount64(m)); k > 0; k-- {
			m &= m - 1
		}
		port = bits.TrailingZeros64(m)
	}
	return router.Request{Out: uint8(port), VC: uint8(rt.Out[port].ClassVC(hops))}, true
}

// pickRing returns the escape ring whose next-hop channel has the most
// credits, provided it has room for the two-packet bubble and its port is
// free.
func (e *OFAR) pickRing(rt *router.Router, now int64) (ring, port, vc int, ok bool) {
	bestCr := -1
	for j := 0; j < rt.NumRings(); j++ {
		pj, vj, cr, okj := rt.RingOut(j)
		if !okj {
			continue // a failed ring edge never heals; no read
		}
		rt.NoteRead(pj)
		if cr < 2 || rt.Out[pj].Busy(now) {
			continue
		}
		if cr > bestCr {
			ring, port, vc, bestCr, ok = j, pj, vj, cr, true
		}
	}
	return
}
