// Package ofar is a cycle-accurate simulator of dragonfly interconnection
// networks reproducing García et al., "On-the-Fly Adaptive Routing in
// High-Radix Hierarchical Networks" (ICPP 2012).
//
// The package exposes the paper's full experimental apparatus: the balanced
// dragonfly topology with consecutive ("palm tree") global wiring, an
// input-buffered virtual cut-through router model with credit flow control
// and an iterative separable allocator, the routing mechanisms MIN, VAL,
// PB, UGAL-L, OFAR and OFAR-L, the Hamiltonian escape subnetwork (physical
// or embedded, single or multi-ring), the synthetic traffic patterns
// UN/ADV+N/mixes, and one runner, Resolved.Run, for steady-state,
// transient and burst experiments.
//
// Quick start:
//
//	r, err := ofar.Experiment{H: 3, Pattern: "UN", Warmup: 2000}.Resolve()
//	res, err := r.Run(0.3, ofar.SweepOptions{}) // balanced h=3 dragonfly, OFAR
//	fmt.Println(res.AvgLatency, res.Throughput)
package ofar

import (
	"io"

	"ofar/internal/core"
	"ofar/internal/network"
	"ofar/internal/routing"
	"ofar/internal/stats"
	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Re-exported configuration types. The aliases keep a single source of
// truth in the internal packages while giving users one import.
type (
	// Config describes a simulated network; see DefaultConfig.
	Config = network.Config
	// RingMode selects the escape-subnetwork realization.
	RingMode = network.RingMode
	// Routing names a routing mechanism.
	Routing = network.Routing
	// OFARConfig tunes the OFAR mechanism (thresholds, escape policy).
	OFARConfig = core.Config
	// AdaptiveConfig tunes the PB/UGAL baselines.
	AdaptiveConfig = routing.AdaptiveConfig
	// Topology is the dragonfly topology (exposed for analysis helpers).
	Topology = topology.Dragonfly
	// RunStats is the raw statistics sink of a simulation.
	RunStats = stats.Run
	// Fault is one scheduled link or router failure (Config.Faults).
	Fault = network.Fault
	// FaultKind names a class of injected failure.
	FaultKind = network.FaultKind
)

// Escape-subnetwork realizations.
const (
	RingNone     = network.RingNone
	RingPhysical = network.RingPhysical
	RingEmbedded = network.RingEmbedded
)

// Routing mechanisms.
const (
	MIN   = network.MIN
	VAL   = network.VAL
	PB    = network.PB
	UGAL  = network.UGAL
	PAR   = network.PAR
	OFAR  = network.OFAR
	OFARL = network.OFARL
)

// Fault kinds.
const (
	FaultLink   = network.FaultLink
	FaultRouter = network.FaultRouter
)

// DefaultConfig returns the paper's §V configuration for a balanced
// maximum-size dragonfly with the given h (the paper evaluates h = 6:
// 5,256 nodes, 876 routers in 73 groups).
func DefaultConfig(h int) Config { return network.DefaultConfig(h) }

// DefaultOFARConfig returns the repository's default OFAR tuning (the
// §IV-B static threshold policy; see core.DefaultConfig for why).
func DefaultOFARConfig() OFARConfig { return core.DefaultConfig() }

// DefaultOFARVariableConfig returns the paper's §V variable-threshold
// tuning (Th_min = 0, Th_non-min = 0.9·Q_min).
func DefaultOFARVariableConfig() OFARConfig { return core.VariablePolicyConfig() }

// Simulator wraps an assembled network for step-level control. Most users
// should prefer Resolved.Run.
type Simulator struct {
	net *network.Network
}

// NewSimulator assembles a network from a configuration.
func NewSimulator(cfg Config) (*Simulator, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{net: n}, nil
}

// Topology returns the simulator's dragonfly instance.
func (s *Simulator) Topology() *Topology { return s.net.Topo }

// Stats returns the simulator's statistics sink.
func (s *Simulator) Stats() *RunStats { return s.net.Stats }

// Now returns the current simulation cycle.
func (s *Simulator) Now() int64 { return s.net.Now() }

// SetTraffic attaches a traffic source built from a pattern spec: an
// open-loop Bernoulli process with the given offered load in
// phits/(node·cycle).
func (s *Simulator) SetTraffic(ps PatternSpec, load float64) {
	p := ps.build(s.net.Topo)
	s.net.SetGenerator(traffic.NewBernoulli(p, load, s.net.Cfg.PacketSize))
}

// Step advances one cycle.
func (s *Simulator) Step() { s.net.Step() }

// Run advances the given number of cycles.
func (s *Simulator) Run(cycles int) { s.net.Run(cycles) }

// Network exposes the underlying assembly for advanced users (examples,
// tests, custom experiment drivers).
func (s *Simulator) Network() *network.Network { return s.net }

// Snapshot writes the simulator's complete state — RNG streams, buffers,
// credits, in-flight events, arbiter and escape-ring state, fault cursor,
// statistics — as a versioned binary image. The image is deterministic and
// restores bit-identically; see network.Snapshot for the format contract.
func (s *Simulator) Snapshot(w io.Writer) error { return s.net.Snapshot(w) }

// Restore overwrites the simulator's state from a snapshot. The simulator
// must be built from the same configuration (modulo worker/cache settings,
// which change wall-clock only) by the same simulation physics;
// corrupt input returns an error without panicking.
func (s *Simulator) Restore(r io.Reader) error { return s.net.Restore(r) }

// Fork clones the warm state into a fully independent simulator — own
// routers, event wheel, RNG positions and (when configured) worker pool.
// Close the fork when done.
func (s *Simulator) Fork() (*Simulator, error) {
	n, err := s.net.Fork()
	if err != nil {
		return nil, err
	}
	return &Simulator{net: n}, nil
}

// Close releases the simulator's resources — with Config.Workers > 1, the
// persistent router-stage worker pool. Idempotent; a no-op for serial
// configurations. Resolved.Run closes its networks itself.
func (s *Simulator) Close() { s.net.Close() }
