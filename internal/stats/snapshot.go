package stats

import (
	"slices"

	"ofar/internal/simcore"
)

// Snapshot support: Run (with its optional Series, Histogram and utilization
// sinks) serializes every counter, including the live measurement window, so
// a restored simulation reports bit-identical statistics to one that was
// never interrupted. The affected-flow set is written in sorted key order,
// which is what keeps snapshot bytes deterministic across runs.

const (
	maxAffectedFlows = 1 << 28
	maxSeriesBuckets = 1 << 28
	maxHistBuckets   = 1 << 16
	maxUtilCounters  = 1 << 28
)

// State walks the full statistics state. Decoding works in place (callers
// hold the *Run pointer across a restore). Nodes/PacketSize must match the
// sink being restored into, and so must the per-job slots, which the
// attached generator sizes before the restore reaches this section: a
// mismatch means the snapshot belongs to a different network or workload
// and is rejected.
func (r *Run) State(c *simcore.Codec) error {
	dec := c.Decoding()
	c.Shape(r.Nodes, "stats nodes")
	c.Shape(r.PacketSize, "stats packet size")
	simcore.Int(c, &r.Generated)
	simcore.Int(c, &r.SourceBlocked)
	simcore.Int(c, &r.Injected)
	simcore.Int(c, &r.Delivered)
	simcore.Int(c, &r.GlobalMisroutes)
	simcore.Int(c, &r.LocalMisroutes)
	simcore.Int(c, &r.RingEnters)
	simcore.Int(c, &r.RingExits)
	simcore.Int(c, &r.RingHops)
	simcore.Int(c, &r.Dropped)
	simcore.Int(c, &r.FaultReroutes)

	var keys []uint64
	if !dec {
		keys = make([]uint64, 0, len(r.affected))
		for k := range r.affected {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	nAff := c.Len(len(keys), maxAffectedFlows)
	if dec {
		r.affected = nil
		if nAff > 0 {
			r.affected = make(map[uint64]struct{}, nAff)
		}
	}
	for i := range nAff {
		var k uint64
		if !dec {
			k = keys[i]
		}
		c.U64(&k)
		if dec {
			r.affected[k] = struct{}{}
		}
	}

	c.Bool(&r.measuring)
	simcore.Int(c, &r.measureStart)
	simcore.Int(c, &r.mDelivered)
	c.F64(&r.mLatSum)
	simcore.Int(c, &r.mLatCount)
	c.F64(&r.mNetLatSum)
	simcore.Int(c, &r.mHopsSum)
	simcore.Int(c, &r.mLatMax)
	simcore.Int(c, &r.mHopsMax)
	simcore.Int(c, &r.mCanHopsMax)

	if present(c, &r.series) {
		r.series.state(c)
	}
	if present(c, &r.hist) {
		r.hist.state(c)
	}
	hasUtil := r.util != nil
	c.Bool(&hasUtil)
	if dec {
		r.util, r.ports = nil, 0
	}
	if hasUtil {
		simcore.Int(c, &r.ports)
		n := c.Len(len(r.util), maxUtilCounters)
		if dec {
			r.util = make([]int64, n)
		}
		for i := range r.util {
			simcore.Int(c, &r.util[i])
		}
	}

	c.Shape(len(r.jobs), "job slots")
	for i := range r.jobs {
		s := &r.jobs[i]
		name := s.Name
		c.String(&name, 1<<16)
		if dec && name != s.Name {
			c.Fail("job slot %d named %q, sink has %q", i, name, s.Name)
		}
		simcore.Int(c, &s.Nodes)
		simcore.Int(c, &s.Generated)
		simcore.Int(c, &s.Delivered)
		simcore.Int(c, &s.Dropped)
		simcore.Int(c, &s.mDelivered)
		c.F64(&s.mLatSum)
		if dec && (s.Nodes < 0 || s.Generated < 0 || s.Delivered < 0 || s.Dropped < 0 || s.Delivered+s.Dropped > s.Generated) {
			c.Fail("job slot %d counters gen=%d del=%d drop=%d inconsistent", i, s.Generated, s.Delivered, s.Dropped)
		}
		if dec {
			s.hist = &Histogram{}
		}
		s.hist.state(c)
	}
	return c.Err()
}

// UtilizationFits reports whether the utilization counters, when enabled,
// hold routers rows of at least ports ports each — what AddUtilization
// indexes for a network of routers routers whose widest has ports outputs.
func (r *Run) UtilizationFits(routers, ports int) bool {
	return r.util == nil || r.ports >= ports && len(r.util) == routers*r.ports
}

// present visits whether the optional sink *p is on; decoding replaces *p
// with nil or a fresh zero sink for the sink's own walk to fill.
func present[T any](c *simcore.Codec, p **T) bool {
	on := *p != nil
	c.Bool(&on)
	if c.Decoding() {
		*p = nil
		if on {
			*p = new(T)
		}
	}
	return on
}

func (s *Series) state(c *simcore.Codec) {
	simcore.Int(c, &s.bucket)
	if c.Decoding() && s.bucket < 1 {
		c.Fail("series bucket width %d < 1", s.bucket)
	}
	n := c.Len(len(s.sum), maxSeriesBuckets)
	if c.Decoding() {
		s.sum = make([]float64, n)
		s.count = make([]int64, n)
	}
	for i := range s.sum {
		c.F64(&s.sum[i])
		simcore.Int(c, &s.count[i])
	}
}

func (h *Histogram) state(c *simcore.Codec) {
	c.F64(&h.base)
	if c.Decoding() && !(h.base > 0) {
		c.Fail("histogram base %v not positive", h.base)
	}
	simcore.Int(c, &h.count)
	c.F64(&h.sum)
	c.F64(&h.min)
	c.F64(&h.max)
	n := c.Len(len(h.buckets), maxHistBuckets)
	if c.Decoding() {
		h.buckets = make([]int64, n)
	}
	for i := range h.buckets {
		simcore.Int(c, &h.buckets[i])
	}
}
