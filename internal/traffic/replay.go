package traffic

import (
	"fmt"
	"sync/atomic"

	"ofar/internal/simcore"
	"ofar/internal/trace"
)

// TraceReplay re-injects a recorded (or external) packet trace. Each node
// holds its own cursor into its slice of the trace; on every cycle the node
// emits its next record once the record's cycle is due. Replaying a trace
// recorded by this engine reproduces the original run bit-identically —
// generation is the only consumer of the traffic RNG, so an identical
// (cycle, src, dst) stream leaves every router decision unchanged. External
// traces whose cycles the network cannot keep up with (source queue full)
// slip later via Retract, which is the honest backpressure semantics.
type TraceReplay struct {
	name    string
	perNode [][]trace.Record // records of each source, in trace order

	cursor []int // per-node next record index (mutable progress state)
	// remaining is accessed with sync/atomic: under the sharded injection
	// front-end each group shard decrements it concurrently. The count is a
	// commutative sum only *read* at phase quiescence (Done, between cycles),
	// so atomicity is all the cross-shard ordering it needs.
	remaining int64
	total     int
}

// NewTraceReplay validates the trace against a topology of `nodes` nodes and
// indexes it by source. Records must be sorted by cycle (the on-disk format
// guarantees it; in-memory callers must too).
func NewTraceReplay(recs []trace.Record, nodes int) (*TraceReplay, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("traffic: trace replay needs at least 2 nodes, have %d", nodes)
	}
	r := &TraceReplay{
		perNode: make([][]trace.Record, nodes),
		cursor:  make([]int, nodes),
		total:   len(recs),
	}
	prev := int64(0)
	for i, rec := range recs {
		if rec.Cycle < prev {
			return nil, fmt.Errorf("trace: record %d at cycle %d out of order (previous %d)", i, rec.Cycle, prev)
		}
		prev = rec.Cycle
		if rec.Src < 0 || int(rec.Src) >= nodes || rec.Dst < 0 || int(rec.Dst) >= nodes {
			return nil, fmt.Errorf("trace: record %d endpoints %d→%d outside %d nodes", i, rec.Src, rec.Dst, nodes)
		}
		if rec.Src == rec.Dst {
			return nil, fmt.Errorf("trace: record %d sends node %d to itself", i, rec.Src)
		}
		r.perNode[rec.Src] = append(r.perNode[rec.Src], rec)
	}
	r.remaining = int64(r.total)
	// The identity hash covers every record, so restoring a snapshot against
	// a different trace fails the generator name check instead of silently
	// replaying the wrong stream.
	var e simcore.Enc
	for _, rec := range recs {
		e.I64(rec.Cycle)
		e.U32(uint32(rec.Src))
		e.U32(uint32(rec.Dst))
		e.U16(rec.Size)
	}
	r.name = fmt.Sprintf("trace(%d,%016x)", len(recs), simcore.Checksum64(e.Data()))
	return r, nil
}

// Name implements Generator.
func (r *TraceReplay) Name() string { return r.name }

// Next implements Generator: it emits the node's next record once its cycle
// is due. The `<=` makes externally-authored traces self-healing — a record
// whose cycle has already passed (the node was backpressured then) injects
// at the first opportunity instead of being lost.
func (r *TraceReplay) Next(_ *simcore.RNG, node int, now int64) (int, bool) {
	recs := r.perNode[node]
	c := r.cursor[node]
	if c >= len(recs) || recs[c].Cycle > now {
		return 0, false
	}
	r.cursor[node] = c + 1
	atomic.AddInt64(&r.remaining, -1)
	return int(recs[c].Dst), true
}

// Retract implements Generator: the cursor steps back so the record is
// re-offered next cycle.
func (r *TraceReplay) Retract(node int) {
	r.cursor[node]--
	atomic.AddInt64(&r.remaining, 1)
}

// Done implements Generator: a replay is exhausted when every record has
// been injected.
func (r *TraceReplay) Done() bool { return atomic.LoadInt64(&r.remaining) == 0 }

// Total returns the number of records in the trace.
func (r *TraceReplay) Total() int { return r.total }

// State implements StatefulGenerator: the per-node cursors plus the
// redundant remaining count for the decode-time cross-check. Each cursor
// must lie within its node's record list and the stored remaining count must
// equal the records the cursors have not yet passed.
func (r *TraceReplay) State(c *simcore.Codec) error {
	c.Shape(len(r.cursor), "trace replay nodes")
	injected := 0
	for i := range r.cursor {
		simcore.Int(c, &r.cursor[i])
		if cur := r.cursor[i]; c.Decoding() && (cur < 0 || cur > len(r.perNode[i])) {
			c.Fail("trace cursor[%d]=%d outside [0,%d]", i, cur, len(r.perNode[i]))
		}
		injected += r.cursor[i]
	}
	simcore.Int(c, &r.remaining)
	if c.Decoding() && c.Err() == nil && r.remaining != int64(r.total-injected) {
		c.Fail("trace remaining %d != %d records - %d injected", r.remaining, r.total, injected)
	}
	return c.Err()
}

// CloneGenerator implements CloneableGenerator: the clone shares the
// immutable per-node record lists but owns its cursors.
func (r *TraceReplay) CloneGenerator() Generator {
	c := *r
	c.cursor = append([]int(nil), r.cursor...)
	return &c
}
