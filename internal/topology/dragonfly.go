// Package topology implements the dragonfly topology used by the OFAR paper
// (García et al., ICPP 2012): a two-level hierarchical direct network where
// routers inside a group form a complete graph over local links and groups
// form a complete graph over global links.
//
// Terminology and parameters follow Kim et al. (ISCA 2008) and the paper:
//
//	p — processing nodes per router
//	a — routers per group
//	h — global links per router
//
// A balanced network uses a = 2p = 2h; the maximum-size network has
// G = a·h + 1 = 2h² + 1 groups. Global wiring follows the consecutive
// ("palm tree") arrangement implied by Fig. 1 of the paper: global link
// ℓ = r·h + k of group i connects to group (i+ℓ+1) mod G, arriving on the
// peer's global link index G−2−ℓ. This arrangement exhibits the paper's
// §III pathology: under ADV+n·h traffic, all misrouted flow entering a
// router of an intermediate group must leave through the single local link
// to the next router.
//
// Minimal routes come from forwarding tables New fills once, as a fabric's
// routing engine does: each node's and router's place, and per (group,
// destination group) the gateway router's local index and global port (2 B a
// pair, 10.6 KB at h=6). MinimalPort and PortToGroup read them with no
// division; GlobalEntry and LocalPortTo build them.
package topology

import (
	"errors"
	"fmt"
)

// PortKind classifies router ports.
type PortKind uint8

const (
	// PortNode is a processor port: injection on the input side, ejection
	// (consumption) on the output side.
	PortNode PortKind = iota
	// PortLocal connects two routers of the same group.
	PortLocal
	// PortGlobal connects two routers of different groups.
	PortGlobal
	// PortRing is a dedicated physical escape-ring port.
	PortRing
	// PortNone marks an unused port slot.
	PortNone
)

func (k PortKind) String() string {
	switch k {
	case PortNode:
		return "node"
	case PortLocal:
		return "local"
	case PortGlobal:
		return "global"
	case PortRing:
		return "ring"
	default:
		return "none"
	}
}

// Dragonfly describes a dragonfly network instance. All derived indexing
// helpers are methods on this type. The zero value is not usable; call New.
type Dragonfly struct {
	P int // nodes per router
	A int // routers per group
	H int // global links per router
	G int // number of groups

	Routers int // total routers = A·G
	Nodes   int // total nodes = P·A·G

	// RouterPorts is the number of canonical ports per router:
	// P node ports + (A−1) local ports + H global ports.
	RouterPorts int

	wiring []wire // per router, per port: peer coordinates

	// Minimal-route tables (buildTables).
	nodePlace   []place // per node
	routerPlace []place // per router
	gateway     []gate  // per (group, destination group), row-major
}

// place is where a node or router sits: its group, its router's index in the
// group and, for a node, its slot on that router.
type place struct {
	group uint16
	local uint8
	slot  uint8
}

// gate is a group's gateway toward one other group: the local index of the
// router owning the global link and the link's port on that router.
type gate struct{ local, port uint8 }

// wire records the remote endpoint of one router output port.
type wire struct {
	kind     PortKind
	peer     int32 // peer router (or node for PortNode)
	peerPort int32 // input-port index on the peer router (undefined for PortNode)
}

// New builds a dragonfly with the given parameters. groups == 0 selects the
// maximum size a·h+1. Groups beyond 2 must not exceed a·h+1; smaller group
// counts leave some global ports unwired (reported as PortNone peers).
func New(p, a, h, groups int) (*Dragonfly, error) {
	if p < 1 || a < 1 || h < 1 {
		return nil, fmt.Errorf("topology: parameters must be positive (p=%d a=%d h=%d)", p, a, h)
	}
	maxG := a*h + 1
	if groups == 0 {
		groups = maxG
	}
	if groups < 1 || groups > maxG {
		return nil, fmt.Errorf("topology: group count %d out of range [1,%d]", groups, maxG)
	}
	if ports := p + a - 1 + h; ports > 256 {
		return nil, fmt.Errorf("topology: %d ports per router, at most 256 (the routing tables hold 8-bit ports)", ports)
	}
	d := &Dragonfly{
		P: p, A: a, H: h, G: groups,
		Routers:     a * groups,
		Nodes:       p * a * groups,
		RouterPorts: p + (a - 1) + h,
	}
	d.buildWiring()
	d.buildTables()
	return d, nil
}

// NewBalanced builds the canonical balanced maximum-size dragonfly for a
// given h: p = h, a = 2h, G = 2h²+1.
func NewBalanced(h int) (*Dragonfly, error) {
	return New(h, 2*h, h, 0)
}

// ErrTooSmall is returned by ring constructors when the network is too small
// to stitch an embedded Hamiltonian ring with the chosen group offset.
var ErrTooSmall = errors.New("topology: network too small for Hamiltonian ring stitching")

// --- basic coordinates -----------------------------------------------------

// RouterOf returns the router a node is attached to.
func (d *Dragonfly) RouterOf(node int) int { return node / d.P }

// NodeSlot returns the per-router slot of a node (0..P-1).
func (d *Dragonfly) NodeSlot(node int) int { return node % d.P }

// GroupOf returns the group of a router.
func (d *Dragonfly) GroupOf(router int) int { return router / d.A }

// GroupOfNode returns the group of a node.
func (d *Dragonfly) GroupOfNode(node int) int { return node / (d.P * d.A) }

// LocalIndex returns the index of a router within its group (0..A-1).
func (d *Dragonfly) LocalIndex(router int) int { return router % d.A }

// RouterAt returns the global router id for (group, localIndex).
func (d *Dragonfly) RouterAt(group, local int) int { return group*d.A + local }

// NodeAt returns the global node id for (router, slot).
func (d *Dragonfly) NodeAt(router, slot int) int { return router*d.P + slot }

// --- port layout -------------------------------------------------------------
//
// Canonical port indices on every router:
//
//	[0, P)                 node ports (port i ↔ node slot i)
//	[P, P+A-1)             local ports
//	[P+A-1, P+A-1+H)       global ports
//
// Physical-ring configurations append two PortRing ports after these; the
// topology package only defines the canonical layout and ring orders, the
// router package materializes ring ports.

// NodePort returns the port index serving node slot s.
func (d *Dragonfly) NodePort(s int) int { return s }

// LocalPortBase returns the first local port index.
func (d *Dragonfly) LocalPortBase() int { return d.P }

// GlobalPortBase returns the first global port index.
func (d *Dragonfly) GlobalPortBase() int { return d.P + d.A - 1 }

// PortKindOf classifies a canonical port index.
func (d *Dragonfly) PortKindOf(port int) PortKind {
	switch {
	case port < 0:
		return PortNone
	case port < d.P:
		return PortNode
	case port < d.P+d.A-1:
		return PortLocal
	case port < d.RouterPorts:
		return PortGlobal
	default:
		return PortRing
	}
}

// LocalPortTo returns the local port of router r leading to router t of the
// same group. r and t are global router ids and must differ.
func (d *Dragonfly) LocalPortTo(r, t int) int {
	return d.localPort(d.LocalIndex(r), d.LocalIndex(t))
}

// localPort is LocalPortTo on local indices.
func (d *Dragonfly) localPort(ri, ti int) int {
	if ti < ri {
		return d.P + ti
	}
	return d.P + ti - 1
}

// --- global wiring -----------------------------------------------------------

// globalLinkIndex returns the group-level link index ℓ owned by (router r,
// global port k), with r given as a local index.
func globalLinkIndex(rLocal, k, h int) int { return rLocal*h + k }

// GlobalLinkTarget returns the group reached through global link ℓ of group g,
// or -1 if the link is unwired (small networks only).
func (d *Dragonfly) GlobalLinkTarget(g, l int) int {
	if l >= d.G-1 {
		return -1 // unwired port on undersized networks
	}
	return (g + l + 1) % d.G
}

// GlobalLinkOf returns the link index of group src leading to group dst
// (src != dst), i.e. the inverse of GlobalLinkTarget.
func (d *Dragonfly) GlobalLinkOf(src, dst int) int {
	return (dst - src - 1 + d.G) % d.G
}

// GlobalEntry returns the router of group src that owns the global link to
// group dst, and the canonical port index of that link on the router.
func (d *Dragonfly) GlobalEntry(src, dst int) (router, port int) {
	l := d.GlobalLinkOf(src, dst)
	return d.RouterAt(src, l/d.H), d.GlobalPortBase() + l%d.H
}

// buildWiring precomputes the peer of every canonical port of every router.
func (d *Dragonfly) buildWiring() {
	d.wiring = make([]wire, d.Routers*d.RouterPorts)
	for r := 0; r < d.Routers; r++ {
		g := d.GroupOf(r)
		rl := d.LocalIndex(r)
		base := r * d.RouterPorts
		// Node ports.
		for s := 0; s < d.P; s++ {
			d.wiring[base+s] = wire{kind: PortNode, peer: int32(d.NodeAt(r, s))}
		}
		// Local ports.
		for j := 0; j < d.A-1; j++ {
			t := j
			if j >= rl {
				t = j + 1
			}
			peer := d.RouterAt(g, t)
			d.wiring[base+d.P+j] = wire{
				kind:     PortLocal,
				peer:     int32(peer),
				peerPort: int32(d.LocalPortTo(peer, r)),
			}
		}
		// Global ports.
		for k := 0; k < d.H; k++ {
			l := globalLinkIndex(rl, k, d.H)
			tg := d.GlobalLinkTarget(g, l)
			slot := base + d.GlobalPortBase() + k
			if tg < 0 {
				d.wiring[slot] = wire{kind: PortNone, peer: -1, peerPort: -1}
				continue
			}
			lp := d.G - 2 - l // peer link index
			peer := d.RouterAt(tg, lp/d.H)
			d.wiring[slot] = wire{
				kind:     PortGlobal,
				peer:     int32(peer),
				peerPort: int32(d.GlobalPortBase() + lp%d.H),
			}
		}
	}
}

// Peer returns the remote endpoint of a canonical output port: for node
// ports the attached node id (peerPort == -1), for local/global ports the
// peer router and its input-port index. kind PortNone marks unwired ports.
func (d *Dragonfly) Peer(router, port int) (kind PortKind, peer, peerPort int) {
	w := d.wiring[router*d.RouterPorts+port]
	if w.kind == PortNode {
		return w.kind, int(w.peer), -1
	}
	return w.kind, int(w.peer), int(w.peerPort)
}

// --- minimal routing ---------------------------------------------------------

// buildTables fills the minimal-route tables from the coordinate and wiring
// arithmetic. The gateway of a group toward itself is never read.
func (d *Dragonfly) buildTables() {
	d.routerPlace = make([]place, d.Routers)
	d.nodePlace = make([]place, d.Nodes)
	for r := range d.routerPlace {
		at := place{group: uint16(d.GroupOf(r)), local: uint8(d.LocalIndex(r))}
		d.routerPlace[r] = at
		for s := 0; s < d.P; s++ {
			at.slot = uint8(s)
			d.nodePlace[d.NodeAt(r, s)] = at
		}
	}
	d.gateway = make([]gate, d.G*d.G)
	for i := range d.gateway {
		if src, dst := i/d.G, i%d.G; src != dst {
			r, port := d.GlobalEntry(src, dst)
			d.gateway[i] = gate{local: uint8(d.LocalIndex(r)), port: uint8(port)}
		}
	}
}

// MinimalPort returns the canonical output port of router r on the minimal
// path toward node dst. Minimal paths are l–g–l: at most one local hop in the
// source group, the single global link to the destination group, and at most
// one local hop in the destination group.
func (d *Dragonfly) MinimalPort(r, dst int) int {
	at, to := d.routerPlace[r], d.nodePlace[dst]
	if to.group != at.group {
		return d.toGateway(at, int(to.group))
	}
	if to.local == at.local {
		return d.NodePort(int(to.slot))
	}
	return d.localPort(int(at.local), int(to.local))
}

// PortToGroup returns the output port of router r heading (minimally) toward
// group tg: the global port if r owns the link, otherwise the local port to
// the owning router. r's group must differ from tg.
func (d *Dragonfly) PortToGroup(r, tg int) int {
	return d.toGateway(d.routerPlace[r], tg)
}

// toGateway is the port of the router at `at` toward its group's gateway to
// group tg: the global link itself when the router owns it.
func (d *Dragonfly) toGateway(at place, tg int) int {
	gw := d.gateway[int(at.group)*d.G+tg]
	if gw.local == at.local {
		return int(gw.port)
	}
	return d.localPort(int(at.local), int(gw.local))
}

// MinimalHops returns the number of router-to-router hops on the minimal
// path between two nodes (0 when both share a router).
func (d *Dragonfly) MinimalHops(src, dst int) int {
	hops := 0
	for r, dr := d.RouterOf(src), d.RouterOf(dst); r != dr; hops++ {
		_, r, _ = d.Peer(r, d.MinimalPort(r, dst))
	}
	return hops
}

// Validate checks structural invariants; it is used by tests and by New in
// debug builds. It returns the first violated invariant.
func (d *Dragonfly) Validate() error {
	for r := 0; r < d.Routers; r++ {
		for p := 0; p < d.RouterPorts; p++ {
			kind, peer, peerPort := d.Peer(r, p)
			switch kind {
			case PortNode:
				if d.RouterOf(peer) != r {
					return fmt.Errorf("router %d node port %d attached to foreign node %d", r, p, peer)
				}
			case PortLocal:
				if d.GroupOf(peer) != d.GroupOf(r) || peer == r {
					return fmt.Errorf("router %d local port %d wired to %d", r, p, peer)
				}
				k2, back, _ := d.Peer(peer, peerPort)
				if k2 != PortLocal || back != r {
					return fmt.Errorf("local link %d:%d not symmetric", r, p)
				}
			case PortGlobal:
				if d.GroupOf(peer) == d.GroupOf(r) {
					return fmt.Errorf("router %d global port %d wired within group", r, p)
				}
				k2, back, backPort := d.Peer(peer, peerPort)
				if k2 != PortGlobal || back != r {
					return fmt.Errorf("global link %d:%d not symmetric", r, p)
				}
				if backPort != p {
					return fmt.Errorf("global link %d:%d asymmetric port map", r, p)
				}
			case PortNone:
				if d.G == a2h2(d.H)+1 && d.A == 2*d.H {
					return fmt.Errorf("router %d port %d unwired in max-size network", r, p)
				}
			}
		}
	}
	return nil
}

func a2h2(h int) int { return 2 * h * h }
