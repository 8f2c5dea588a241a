package traffic

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// This file is the job-level workload layer (ROADMAP item 5, following the
// RAPS frame of SNIPPETS.md §1): dragonflies exist to schedule supercomputer
// jobs onto, so the interesting traffic is N concurrent applications placed
// on node ranges — each with its own communication kind, offered load and
// lifetime — not one homogeneous synthetic pattern. Placement is linear
// (consecutive nodes, the paper's §III hotspot-producing DEF mapping) or a
// seeded random permutation (Bhatele-style RDN); nodes left unplaced can run
// background uniform traffic. The network tags every packet with its
// source's job slot, so Stats reports per-job p99/slowdown/interference.

// JobKind selects a job's communication pattern.
type JobKind uint8

const (
	// JobStencil is a 3-D halo exchange on a task torus (Dims must multiply
	// to the job's node count): each packet targets a random face neighbor.
	JobStencil JobKind = iota
	// JobAll2All models all-to-all phases (e.g. FFT transposes): each packet
	// targets a uniformly random other member of the job.
	JobAll2All
	// JobRing models ring-allreduce phases (reduce-scatter/allgather steps):
	// every rank sends to its successor on the job's rank ring.
	JobRing
	// JobParamServer is parameter-server fan-in: workers send to rank 0, and
	// rank 0 fans updates back out to a random worker.
	JobParamServer
)

// String returns the compact kind tag used in canonical workload names.
func (k JobKind) String() string {
	switch k {
	case JobStencil:
		return "stencil"
	case JobAll2All:
		return "a2a"
	case JobRing:
		return "ring"
	case JobParamServer:
		return "ps"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// JobSpec describes one job of a JobSet.
type JobSpec struct {
	Kind  JobKind
	Nodes int     // nodes the job occupies (ranks 0..Nodes-1)
	Load  float64 // offered load in phits/(node·cycle) while active
	Start int64   // first active cycle
	End   int64   // first inactive cycle; <= 0 means the job never ends
	Dims  [3]int  // stencil task grid; product must equal Nodes (JobStencil only)
}

// JobSetConfig configures a JobSet.
type JobSetConfig struct {
	Jobs       []JobSpec
	Mapping    Mapping // placement of job node ranges onto physical nodes
	Background float64 // uniform load on unplaced nodes, phits/(node·cycle)
	Seed       uint64  // seeds the MapRandom permutation
	PacketSize int
}

// JobSet is the job-level workload generator. It implements Generator,
// StatefulGenerator, CloneableGenerator and JobAware: per-slot emitted
// counters are the mutable progress state carried through snapshots, and the
// static node→job table drives the network's per-job packet tagging. When
// Background > 0 the unplaced nodes form one extra trailing slot, so the
// per-job counters always partition the aggregate ones.
type JobSet struct {
	cfg     JobSetConfig
	name    string
	jobOf   []int32   // node -> slot (-1: unplaced, generates nothing)
	rankOf  []int32   // node -> rank within its job
	nodesOf [][]int32 // slot -> member nodes by rank (nil for the bg slot)
	prob    []float64 // slot -> per-cycle generation probability
	names   []string
	uniform *Uniform

	// emitted is slot -> packets emitted, the mutable progress state. Nodes of
	// one slot sit in many groups, which the network walks concurrently, so
	// the counters are commutative atomics, read only between windows.
	emitted []atomic.Int64
}

// NewJobSet places the jobs onto the topology. Jobs are placed in order:
// under MapLinear job i occupies the nodes right after job i-1's range;
// under MapRandom the ranges index a permutation of all nodes derived from
// Seed. The combined job sizes must fit the node count.
func NewJobSet(d *topology.Dragonfly, cfg JobSetConfig) (*JobSet, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("traffic: job set needs at least one job")
	}
	if cfg.PacketSize < 1 {
		return nil, fmt.Errorf("traffic: job set packet size %d < 1", cfg.PacketSize)
	}
	if cfg.Background < 0 {
		return nil, fmt.Errorf("traffic: negative background load %v", cfg.Background)
	}
	total := 0
	for i, j := range cfg.Jobs {
		if j.Nodes < 1 {
			return nil, fmt.Errorf("traffic: job %d has %d nodes", i, j.Nodes)
		}
		if j.Load < 0 {
			return nil, fmt.Errorf("traffic: job %d has negative load %v", i, j.Load)
		}
		if j.Kind == JobStencil {
			x, y, z := j.Dims[0], j.Dims[1], j.Dims[2]
			if x < 1 || y < 1 || z < 1 || x*y*z != j.Nodes {
				return nil, fmt.Errorf("traffic: job %d stencil grid %dx%dx%d does not cover %d nodes", i, x, y, z, j.Nodes)
			}
		}
		total += j.Nodes
	}
	if total > d.Nodes {
		return nil, fmt.Errorf("traffic: %d job nodes exceed %d network nodes", total, d.Nodes)
	}

	slots := len(cfg.Jobs)
	bgSlot := -1
	if cfg.Background > 0 && total < d.Nodes {
		bgSlot = slots
		slots++
	}
	s := &JobSet{
		cfg:     cfg,
		jobOf:   make([]int32, d.Nodes),
		rankOf:  make([]int32, d.Nodes),
		nodesOf: make([][]int32, slots),
		prob:    make([]float64, slots),
		names:   make([]string, slots),
		uniform: NewUniform(d),
		emitted: make([]atomic.Int64, slots),
	}
	for n := range s.jobOf {
		s.jobOf[n] = -1
	}
	perm := make([]int32, d.Nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	if cfg.Mapping == MapRandom {
		rng := simcore.NewRNG(cfg.Seed ^ 0x10b5e7)
		for i := len(perm) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			perm[i], perm[k] = perm[k], perm[i]
		}
	}
	next := 0
	for j, spec := range cfg.Jobs {
		members := make([]int32, spec.Nodes)
		for r := 0; r < spec.Nodes; r++ {
			node := perm[next]
			next++
			members[r] = node
			s.jobOf[node] = int32(j)
			s.rankOf[node] = int32(r)
		}
		s.nodesOf[j] = members
		s.prob[j] = spec.Load / float64(cfg.PacketSize)
		s.names[j] = fmt.Sprintf("%s%d", spec.Kind, j)
	}
	if bgSlot >= 0 {
		count := int32(0)
		for _, node := range perm[next:] {
			s.jobOf[node] = int32(bgSlot)
			s.rankOf[node] = count
			count++
		}
		s.prob[bgSlot] = cfg.Background / float64(cfg.PacketSize)
		s.names[bgSlot] = "bg"
	}
	s.name = s.canonicalName()
	return s, nil
}

// canonicalName builds the identity string: it pins the full configuration,
// so a snapshot restored against a differently-shaped JobSet is rejected by
// the generator name check.
func (s *JobSet) canonicalName() string {
	var b strings.Builder
	b.WriteString("jobs(")
	for i, j := range s.cfg.Jobs {
		if i > 0 {
			b.WriteByte(',')
		}
		if j.Kind == JobStencil {
			fmt.Fprintf(&b, "%s:%dx%dx%d@%g", j.Kind, j.Dims[0], j.Dims[1], j.Dims[2], j.Load)
		} else {
			fmt.Fprintf(&b, "%s:%d@%g", j.Kind, j.Nodes, j.Load)
		}
		if j.Start != 0 || j.End > 0 {
			fmt.Fprintf(&b, ":%d-%d", j.Start, j.End)
		}
	}
	fmt.Fprintf(&b, "|%s|bg%g|seed%d)", s.cfg.Mapping, s.cfg.Background, s.cfg.Seed)
	return b.String()
}

// Name implements Generator.
func (s *JobSet) Name() string { return s.name }

// active reports whether job slot j generates at cycle now.
func (s *JobSet) active(j int, now int64) bool {
	if j >= len(s.cfg.Jobs) {
		return true // background runs for the whole simulation
	}
	spec := &s.cfg.Jobs[j]
	return now >= spec.Start && (spec.End <= 0 || now < spec.End)
}

// Next implements Generator. The RNG discipline matches Bernoulli: one
// Bernoulli draw per active node per cycle, destination draws only when a
// packet is generated — so runs are bit-identical across engine variants.
func (s *JobSet) Next(rng *simcore.RNG, node int, now int64) (int, bool) {
	j := int(s.jobOf[node])
	if j < 0 || !s.active(j, now) {
		return 0, false
	}
	if !rng.Bernoulli(s.prob[j]) {
		return 0, false
	}
	s.emitted[j].Add(1)
	return s.dest(rng, j, node), true
}

// dest picks the destination for a packet of job slot j generated at node.
// Degenerate jobs (too few members for the kind's structure) fall back to
// uniform traffic so the offered load survives.
func (s *JobSet) dest(rng *simcore.RNG, j, node int) int {
	members := s.nodesOf[j]
	if members == nil || len(members) < 2 { // background slot or 1-node job
		return s.uniform.Dest(rng, node)
	}
	rank := int(s.rankOf[node])
	switch s.cfg.Jobs[j].Kind {
	case JobStencil:
		dims := s.cfg.Jobs[j].Dims
		x, y, z := dims[0], dims[1], dims[2]
		tx, ty, tz := rank%x, (rank/x)%y, rank/(x*y)
		switch rng.Intn(6) {
		case 0:
			tx = (tx + 1) % x
		case 1:
			tx = (tx - 1 + x) % x
		case 2:
			ty = (ty + 1) % y
		case 3:
			ty = (ty - 1 + y) % y
		case 4:
			tz = (tz + 1) % z
		default:
			tz = (tz - 1 + z) % z
		}
		dst := int(members[tx+ty*x+tz*x*y])
		if dst == node { // degenerate dimension: wraparound hits self
			return s.uniform.Dest(rng, node)
		}
		return dst
	case JobRing:
		return int(members[(rank+1)%len(members)])
	case JobParamServer:
		if rank == 0 { // the server fans updates back to a random worker
			return int(members[1+rng.Intn(len(members)-1)])
		}
		return int(members[0])
	default: // JobAll2All: any other member
		o := rng.Intn(len(members) - 1)
		if o >= rank {
			o++
		}
		return int(members[o])
	}
}

// Retract implements Generator: the job's emitted counter rolls back so the
// progress state never counts a packet the network refused.
func (s *JobSet) Retract(node int) {
	if j := s.jobOf[node]; j >= 0 {
		s.emitted[j].Add(-1)
	}
}

// Done implements Generator: jobs are open-loop sources.
func (s *JobSet) Done() bool { return false }

// NumJobs implements JobAware.
func (s *JobSet) NumJobs() int { return len(s.prob) }

// JobOf implements JobAware.
func (s *JobSet) JobOf(node int) int { return int(s.jobOf[node]) }

// JobName implements JobAware.
func (s *JobSet) JobName(j int) string { return s.names[j] }

// JobNodes implements JobAware.
func (s *JobSet) JobNodes(j int) int {
	if s.nodesOf[j] != nil {
		return len(s.nodesOf[j])
	}
	count := 0
	for _, slot := range s.jobOf {
		if int(slot) == j {
			count++
		}
	}
	return count
}

// State implements StatefulGenerator: the per-slot emitted counters are the
// job set's entire mutable state, plus their redundant total for the
// decode-time consistency cross-check. The slot count must match the
// attached generator, every counter must be non-negative, and the stored
// total must equal their sum (the Burst lesson: individually-in-range values
// can still be mutually inconsistent).
func (s *JobSet) State(c *simcore.Codec) error {
	c.Shape(len(s.emitted), "job set slots")
	sum := int64(0)
	for i := range s.emitted {
		v := s.emitted[i].Load()
		simcore.Int(c, &v)
		if c.Decoding() {
			if v < 0 {
				c.Fail("job slot %d emitted %d < 0", i, v)
			}
			s.emitted[i].Store(v)
		}
		sum += v
	}
	total := sum
	simcore.Int(c, &total)
	if c.Decoding() && c.Err() == nil && total != sum {
		c.Fail("job set emitted total %d != sum of slots %d", total, sum)
	}
	return c.Err()
}

// CloneGenerator implements CloneableGenerator: the clone shares the
// immutable placement tables but owns its progress counters.
func (s *JobSet) CloneGenerator() Generator {
	c := *s
	c.emitted = make([]atomic.Int64, len(s.emitted))
	for i := range s.emitted {
		c.emitted[i].Store(s.emitted[i].Load())
	}
	return &c
}

// Emitted returns how many packets job slot j has generated so far.
func (s *JobSet) Emitted(j int) int64 { return s.emitted[j].Load() }
