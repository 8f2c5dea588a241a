// Package network assembles the full simulated system: dragonfly topology,
// routers with their buffers and credits, the escape subnetwork, the routing
// engine, traffic sources and statistics, and drives the single-cycle loop.
package network

import (
	"fmt"
	"strconv"
	"strings"

	"ofar/internal/core"
	"ofar/internal/routing"
)

// RingMode selects how the escape subnetwork is realized (§IV-C, §VII).
type RingMode int

const (
	// RingNone disables the escape network (only safe for mechanisms with
	// VC-ordered deadlock avoidance: MIN, VAL, PB, UGAL).
	RingNone RingMode = iota
	// RingPhysical adds dedicated ring ports and links to every router.
	RingPhysical
	// RingEmbedded adds an escape VC to the canonical links along the ring.
	RingEmbedded
)

func (m RingMode) String() string {
	switch m {
	case RingPhysical:
		return "physical"
	case RingEmbedded:
		return "embedded"
	default:
		return "none"
	}
}

// Routing names a routing mechanism.
type Routing string

// Available routing mechanisms.
const (
	MIN   Routing = "MIN"
	VAL   Routing = "VAL"
	PB    Routing = "PB"
	UGAL  Routing = "UGAL-L"
	PAR   Routing = "PAR"
	OFAR  Routing = "OFAR"
	OFARL Routing = "OFAR-L"
)

// FaultKind names a class of injected failure.
type FaultKind string

// Fault kinds.
const (
	// FaultLink kills one link: the output port of the named router and the
	// reverse direction (ring ports are unidirectional and lose only the
	// named direction).
	FaultLink FaultKind = "link"
	// FaultRouter kills a whole router: every attached link, its buffered
	// packets (except in-flight drains, which complete) and its nodes.
	FaultRouter FaultKind = "router"
)

// Fault is one scheduled failure. Faults apply at the top of the cycle
// `Cycle`, before event delivery and routing, on every execution mode —
// which is what keeps a faulted run bit-identical across worker counts.
type Fault struct {
	Cycle  int64     `json:"cycle"`
	Kind   FaultKind `json:"kind"`
	Router int       `json:"router"`
	// Port is the failing output port of Router (link faults only). Node
	// ports cannot fail individually; physical escape-ring ports are
	// addressed as RouterPorts+ring.
	Port int `json:"port,omitempty"`
}

// ParseFaults parses a comma-separated inline fault schedule:
// "link@CYCLE:ROUTER:PORT" kills one link, "router@CYCLE:ROUTER" a router,
// e.g. "link@5000:12:7,router@20000:3".
func ParseFaults(spec string) ([]Fault, error) {
	var fs []Fault
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("network: fault %q: want KIND@CYCLE:ROUTER[:PORT]", item)
		}
		parts := strings.Split(rest, ":")
		nums := make([]int64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("network: fault %q: %w", item, err)
			}
			nums[i] = v
		}
		switch FaultKind(kind) {
		case FaultLink:
			if len(nums) != 3 {
				return nil, fmt.Errorf("network: fault %q: link wants CYCLE:ROUTER:PORT", item)
			}
			fs = append(fs, Fault{Cycle: nums[0], Kind: FaultLink, Router: int(nums[1]), Port: int(nums[2])})
		case FaultRouter:
			if len(nums) != 2 {
				return nil, fmt.Errorf("network: fault %q: router wants CYCLE:ROUTER", item)
			}
			fs = append(fs, Fault{Cycle: nums[0], Kind: FaultRouter, Router: int(nums[1])})
		default:
			return nil, fmt.Errorf("network: fault %q: unknown kind %q", item, kind)
		}
	}
	return fs, nil
}

// Config describes one simulated network. DefaultConfig returns the paper's
// §V parameters.
type Config struct {
	// Topology: P nodes/router, A routers/group, H global links/router,
	// Groups groups (0 = maximum size a·h+1).
	P, A, H, Groups int

	PacketSize int // phits, the same for every packet

	LocalLatency  int // cycles
	GlobalLatency int // cycles

	// VC FIFO sizes in phits, each a multiple of PacketSize (routers count
	// buffers and credits in packets).
	LocalBuf  int // phits per local-link VC FIFO
	GlobalBuf int // phits per global-link VC FIFO
	InjBuf    int // phits per injection VC FIFO

	LocalVCs  int
	GlobalVCs int
	InjVCs    int

	Ring     RingMode
	NumRings int // embedded rings (≥1; physical mode uses 1 per ring too)
	RingVCs  int // VCs per physical ring port (embedded rings add 1 escape VC per link)
	RingBuf  int // phits per escape VC FIFO (a multiple of PacketSize)

	AllocIters int // separable allocator iterations

	// PendingCap bounds the per-node source queue (packets); open-loop
	// sources drop beyond it (counted as SourceBlocked), closed-loop
	// sources retract and retry.
	PendingCap int

	Routing  Routing
	OFAR     core.Config
	Adaptive routing.AdaptiveConfig

	// Workers sets the parallelism of Run. Run advances in lookahead
	// windows, each dragonfly group walking every cycle of a window on its
	// own; with Workers > 1 a persistent pool (the Run caller plus
	// PoolWidth()−1 goroutines parked between windows) steals whole groups
	// unless the network is too small to pay for the barrier, and the caller
	// walks them in order otherwise. Everything a group does to shared state
	// — timing-wheel insertions, deliveries, statistics — is logged per group
	// and merged by the caller in a fixed (cycle, phase, group) order, every
	// stochastic draw comes from a per-router or per-group RNG stream, and
	// routing engines are stateless (a Route call records its read set on
	// the group-owned router), so results are bit-identical for any worker
	// count. 0 or 1 never starts a pool; negative values are rejected.
	// Networks built with Workers > 1 own goroutines: call Network.Close
	// when done with them.
	Workers int

	// ShardByGroup is ignored: Workers > 1 always partitions the cycle by
	// group. The field remains (normalized out of snapshot identity, like
	// Workers) only because callers still assign it.
	ShardByGroup bool

	// DisableActivitySched is ignored: Run visits every router every cycle
	// and an idle router's Cycle returns at once. The field is retained
	// (normalized out of snapshot identity) only because bench/ assigns it.
	DisableActivitySched bool

	// DisableRouteCache turns off the dirty-mask-invalidated route memoization
	// in every router (see router.Router.NoteRead). The cache only replays
	// decisions whose inputs provably did not change, so results are
	// bit-identical either way; this escape hatch exists for differential
	// testing and benchmarking, not correctness.
	DisableRouteCache bool

	// Faults is the deterministic failure schedule: each entry kills a link
	// or a whole router at the top of its cycle. The schedule is applied in
	// (Cycle, Kind, Router, Port) order regardless of the order given here.
	Faults []Fault

	// Congestion is the optional injection-throttling congestion manager
	// (§VII lists congestion management as ongoing work; Fig. 9 shows the
	// collapse it prevents).
	Congestion CongestionConfig

	Seed uint64
}

// CongestionConfig tunes the injection-throttling congestion manager: while
// a router's canonical input buffering is occupied beyond the threshold
// fraction, its nodes stop injecting (packets wait at the sources). This is
// the simplest of the HPC congestion-management family the paper defers to
// and is enough to keep the reduced-VC configuration of Fig. 9 from
// collapsing.
type CongestionConfig struct {
	Enabled   bool
	Threshold float64 // default 0.7 when Enabled and unset
}

// DefaultConfig returns the paper's §V configuration for a balanced
// maximum-size dragonfly with the given h: p = h, a = 2h, 8-phit packets,
// 10/100-cycle local/global latencies, 32/256-phit FIFOs, 3 local and
// injection VCs, 2 global VCs, a physical escape ring with the same VC
// counts and 3 allocator iterations. OFAR runs the repository's default
// tuning, core.DefaultConfig (the §IV-B static policy: Th_min = 100 %,
// Th_non-min = 40 %); core.VariablePolicyConfig is the paper's §V variable
// policy (Th_min = 0, Th_non-min = 0.9·Q_min).
func DefaultConfig(h int) Config {
	return Config{
		P: h, A: 2 * h, H: h, Groups: 0,
		PacketSize:    8,
		LocalLatency:  10,
		GlobalLatency: 100,
		LocalBuf:      32,
		GlobalBuf:     256,
		InjBuf:        32,
		LocalVCs:      3,
		GlobalVCs:     2,
		InjVCs:        3,
		Ring:          RingPhysical,
		NumRings:      1,
		RingVCs:       3,
		RingBuf:       32,
		AllocIters:    3,
		PendingCap:    16,
		Routing:       OFAR,
		OFAR:          core.DefaultConfig(),
		Adaptive:      routing.DefaultAdaptiveConfig(),
		Seed:          1,
	}
}

// WithRouting returns c running mechanism rt under the VC conventions, which
// live only here: the VC-ordered baselines take no escape ring, PAR's extra
// source-group hop takes 4 local/injection VCs, OFAR/OFAR-L keep c's ring.
func (c Config) WithRouting(rt Routing) Config {
	c.Routing = rt
	switch rt {
	case PAR:
		if c.LocalVCs < 4 || c.InjVCs < 4 {
			c.LocalVCs, c.InjVCs = 4, 4
		}
		fallthrough
	case MIN, VAL, PB, UGAL:
		c.Ring = RingNone
	}
	return c
}

// numGroups resolves Groups (0 = the maximum size a·h+1).
func (c *Config) numGroups() int {
	if c.Groups == 0 {
		return c.A*c.H + 1
	}
	return c.Groups
}

// PoolWidth is the number of workers a network built from c can keep busy
// (Run caller included): whole groups are the stealing unit, so a pool
// wider than the group count would park goroutines that never claim work.
// 1 means no pool. This is the per-network CPU claim sweep drivers budget
// against GOMAXPROCS.
func (c *Config) PoolWidth() int {
	return max(1, min(c.Workers, c.numGroups()))
}

// Routers keep latencies and buffer counters in 32 bits; 64 VCs of maxVCBuf
// phits stay below 2^31. A trace record keeps the packet size in 16 bits.
const maxLinkLatency, maxVCBuf, maxPacketSize = 1 << 30, 1 << 24, 1<<15 - 1

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	switch {
	case c.P < 1 || c.A < 1 || c.H < 1:
		return fmt.Errorf("network: p/a/h must be positive")
	case c.Groups < 0 || c.Groups > c.A*c.H+1:
		return fmt.Errorf("network: group count %d outside [0, a·h+1=%d]", c.Groups, c.A*c.H+1)
	case c.PacketSize < 1 || c.PacketSize > maxPacketSize:
		return fmt.Errorf("network: packet size %d outside [1,%d] phits", c.PacketSize, maxPacketSize)
	case c.LocalLatency < 1 || c.GlobalLatency < 1:
		return fmt.Errorf("network: link latencies must be ≥ 1")
	case c.LocalLatency > maxLinkLatency || c.GlobalLatency > maxLinkLatency:
		return fmt.Errorf("network: link latencies must be ≤ %d", maxLinkLatency)
	case c.LocalBuf < c.PacketSize || c.GlobalBuf < c.PacketSize || c.InjBuf < c.PacketSize:
		return fmt.Errorf("network: every VC FIFO must hold at least one packet (VCT)")
	case c.LocalBuf%c.PacketSize != 0 || c.GlobalBuf%c.PacketSize != 0 || c.InjBuf%c.PacketSize != 0:
		// Routers count buffers in packets; the occupancy thresholds read
		// matches the phit ratio only while no FIFO holds part of a packet.
		return fmt.Errorf("network: every VC FIFO must hold a whole number of %d-phit packets", c.PacketSize)
	case max(c.LocalBuf, c.GlobalBuf, c.InjBuf, c.RingBuf) > maxVCBuf:
		return fmt.Errorf("network: VC FIFOs must be ≤ %d phits", maxVCBuf)
	case c.LocalVCs < 1 || c.GlobalVCs < 1 || c.InjVCs < 1:
		return fmt.Errorf("network: VC counts must be ≥ 1")
	case c.AllocIters < 1:
		return fmt.Errorf("network: allocator iterations must be ≥ 1")
	case c.PendingCap < 1:
		return fmt.Errorf("network: pending cap must be ≥ 1")
	case c.Workers < 0:
		return fmt.Errorf("network: worker count must be ≥ 0 (0 = no pool)")
	}
	// The router's allocator and route cache keep per-port request/match/
	// read-set state in single uint64 bitsets, so both the port count and
	// the per-port VC count are capped at 64. Far beyond the paper's radices
	// (h=6 ⇒ 23 ports), but guard it explicitly.
	nPorts := c.P + c.A - 1 + c.H
	if c.Ring == RingPhysical {
		nPorts += c.NumRings
	}
	if nPorts > 64 {
		return fmt.Errorf("network: router radix %d exceeds 64 ports (allocator bitset limit)", nPorts)
	}
	maxVCs := max(c.LocalVCs, c.GlobalVCs, c.InjVCs)
	if c.Ring == RingPhysical {
		maxVCs = max(maxVCs, c.RingVCs)
	}
	if c.Ring == RingEmbedded {
		maxVCs += c.NumRings // embedded rings add escape VCs to canonical links
	}
	if maxVCs > 64 {
		return fmt.Errorf("network: %d VCs on one port exceeds 64 (allocator bitset limit)", maxVCs)
	}
	if c.Ring != RingNone {
		if c.NumRings < 1 {
			return fmt.Errorf("network: ring mode %v needs NumRings ≥ 1", c.Ring)
		}
		if c.RingBuf < 2*c.PacketSize || c.RingBuf%c.PacketSize != 0 {
			return fmt.Errorf("network: escape VC FIFOs must hold ≥ 2 whole packets for the bubble condition")
		}
		if c.Ring == RingPhysical && c.RingVCs < 1 {
			return fmt.Errorf("network: physical ring needs RingVCs ≥ 1")
		}
	}
	if c.Congestion.Enabled && (c.Congestion.Threshold < 0 || c.Congestion.Threshold > 1) {
		return fmt.Errorf("network: congestion threshold %f outside [0,1]", c.Congestion.Threshold)
	}
	if len(c.Faults) > 0 {
		routers := c.numGroups() * c.A
		for i, f := range c.Faults {
			switch {
			case f.Cycle < 0:
				return fmt.Errorf("network: fault %d: negative cycle %d", i, f.Cycle)
			case f.Kind != FaultLink && f.Kind != FaultRouter:
				return fmt.Errorf("network: fault %d: unknown kind %q", i, f.Kind)
			case f.Router < 0 || f.Router >= routers:
				return fmt.Errorf("network: fault %d: router %d outside [0,%d)", i, f.Router, routers)
			case f.Kind == FaultLink && (f.Port < c.P || f.Port >= nPorts):
				return fmt.Errorf("network: fault %d: port %d outside [%d,%d) (node ports cannot fail individually)",
					i, f.Port, c.P, nPorts)
			}
		}
	}
	switch c.Routing {
	case MIN, VAL, PB, UGAL:
	case PAR:
		if c.LocalVCs < 4 || c.InjVCs < 4 {
			return fmt.Errorf("network: PAR needs 4 local/injection VCs for its extra source-group hop (have %d/%d)", c.LocalVCs, c.InjVCs)
		}
	case OFAR, OFARL:
		if err := c.OFAR.Validate(); err != nil {
			return fmt.Errorf("network: %s: %w", c.Routing, err)
		}
		if c.Ring == RingNone && c.OFAR.EscapeTimeout >= 0 {
			return fmt.Errorf("network: %s requires an escape ring (or EscapeTimeout < 0 to explicitly run unprotected)", c.Routing)
		}
	default:
		return fmt.Errorf("network: unknown routing %q", c.Routing)
	}
	return nil
}
