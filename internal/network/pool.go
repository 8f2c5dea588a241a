package network

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"ofar/internal/router"
)

// stepPool is the persistent worker pool that walks the groups of a Step
// phase when Config.Workers > 1 and the phase has enough work (see
// Network.pooled). It replaces the spawn-per-Step goroutines of the first
// parallel engine, whose per-cycle cost (goroutine launch, closure
// allocation, channel fan-in) exceeded the parallel compute at every load
// below saturation.
//
// Lifecycle: Network.New starts workers−1 goroutines parked on the dispatch
// barrier; the caller of Step acts as the pool's remaining worker, so the
// pool always has exactly Config.PoolWidth computing participants and the
// caller never idles while work remains. Network.Close retires the
// goroutines and hands every later Step to the caller; an un-Closed
// Workers > 1 Network pins them (parked, but alive) for the life of the
// process.
//
// One epoch (runShards):
//
//  1. dispatch — the caller publishes the phase and the cycle, resets the
//     group cursor and the pending count, bumps the epoch under the dispatch
//     mutex and broadcasts. Everything is reused: steady-state dispatch
//     performs zero allocations.
//  2. steal    — every participant (parked workers and the caller alike)
//     claims whole groups via an atomic cursor and runs the phase on each
//     with its own engine. Which worker takes which group is unobservable:
//     a phase writes only group-owned state plus the group's outboxes,
//     routing state lives in the router (buffers, arbiters, private RNG
//     stream) and engine clones are behaviorally identical
//     (router.ConcurrentCloner).
//  3. join     — each parked worker decrements pending when the cursor runs
//     dry; the last one records the epoch in doneEpoch and signals. The
//     caller spins briefly (a phase is short), yields, then parks on the
//     completion cond, and afterwards commits the outboxes in ascending
//     group order — exactly the order it produces when it walks the groups
//     itself, so runs stay bit-identical for any worker count.
type stepPool struct {
	// Hot shared state, reset at each dispatch.
	cursor  atomic.Int64 // next unclaimed group
	pending atomic.Int32 // parked workers still computing this epoch

	// Dispatch barrier: workers park on cond until epoch advances.
	// now/phase/cursor/pending are written by the caller before the epoch
	// bump, so the mutex hand-off publishes them to the workers.
	mu     sync.Mutex
	cond   sync.Cond
	epoch  uint64 // guarded by mu
	closed bool   // guarded by mu

	now   int64
	phase int

	// Completion barrier: the last finisher of an epoch publishes it here.
	// Epoch-tagged (not a boolean) so a straggler signalling an old epoch
	// late can never satisfy a newer wait.
	doneMu    sync.Mutex
	doneCond  sync.Cond
	doneEpoch uint64 // guarded by doneMu

	workers sync.WaitGroup // worker goroutine lifetimes, for Close
}

// startPool creates the pool and parks workers−1 goroutines on it. Worker 0
// is the Step caller (it uses the primary engine, n.Engine == workerEng[0]);
// goroutines w = 1..workers−1 use their per-worker engine clones.
func (n *Network) startPool(workers int) {
	p := &stepPool{}
	p.cond.L = &p.mu
	p.doneCond.L = &p.doneMu
	n.workerPool = p
	for w := 1; w < workers; w++ {
		p.workers.Add(1)
		go n.poolWorker(p, w)
	}
}

// poolWorker is one parked pool goroutine: wait for a new epoch, steal
// groups until the cursor runs dry, then report in.
func (n *Network) poolWorker(p *stepPool, w int) {
	defer p.workers.Done()
	// Label the goroutine once at birth (the labels stick for its lifetime):
	// profile samples of parked and computing pool workers show up under
	// pool_worker=<w>.
	pprof.Do(context.Background(), pprof.Labels("pool_worker", strconv.Itoa(w)), func(context.Context) {
		eng := n.workerEng[w]
		var seen uint64
		for {
			p.mu.Lock()
			for p.epoch == seen && !p.closed {
				p.cond.Wait()
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			seen = p.epoch
			now, phase := p.now, p.phase
			p.mu.Unlock()

			n.groupShare(p, eng, phase, now)

			if p.pending.Add(-1) == 0 {
				p.doneMu.Lock()
				p.doneEpoch = seen
				p.doneMu.Unlock()
				p.doneCond.Signal()
			}
		}
	})
}

// Pool phases, one per pipeline stage a worker can run on a claimed group:
// phaseHandle handles the group's share of the due list (effects deferred,
// see handle), phaseGenerate runs generateGroup, phasePB runs publishPBGroup
// (no cross-group state, no observable effects, so no barrier work at all)
// and phaseCycle runs cycleGroup into the group outbox.
const (
	phaseHandle = iota
	phaseGenerate
	phasePB
	phaseCycle
)

// groupShare claims group IDs one at a time until the cursor runs dry and
// runs the phase on each. There are only G claims per phase, so cursor
// contention is negligible, and groups are the unit of ownership — nothing
// finer is safe, nothing coarser balances.
func (n *Network) groupShare(p *stepPool, eng router.Engine, phase int, now int64) {
	for {
		k := p.cursor.Add(1) - 1
		if k >= int64(n.nGroups) {
			return
		}
		g := int(k)
		switch phase {
		case phaseHandle:
			for _, idx := range n.dueG[g] {
				n.handle(n.curDue[idx], int(idx), now, &n.gs[g])
			}
		case phaseGenerate:
			n.generateGroup(g, eng, now)
		case phasePB:
			n.publishPBGroup(g, now)
		case phaseCycle:
			n.cycleGroup(g, eng, now, &n.gs[g])
		}
	}
}

// runShards dispatches one phase to the pool — every participant, caller
// included, steals whole groups — and joins. The caller resumes only after
// every group's share is done, with all effects on shared state parked in
// the per-group outboxes for it to merge.
func (n *Network) runShards(phase int, now int64) {
	p := n.workerPool
	p.now, p.phase = now, phase
	p.cursor.Store(0)
	p.pending.Store(int32(n.workers - 1))
	p.mu.Lock()
	p.epoch++
	epoch := p.epoch
	p.mu.Unlock()
	p.cond.Broadcast()

	n.groupShare(p, n.Engine, phase, now)
	p.join(epoch)
}

// join waits for the epoch's parked workers to report in: spin first (a
// phase is tens of microseconds), then yield the P so parked-but-
// runnable workers get it (this is what keeps GOMAXPROCS=1 runs — e.g. under
// testing.AllocsPerRun — live), and only then park on the completion cond.
func (p *stepPool) join(epoch uint64) {
	for spin := 0; p.pending.Load() != 0; spin++ {
		if spin < 64 {
			continue
		}
		if spin < 256 {
			runtime.Gosched()
			continue
		}
		p.doneMu.Lock()
		for p.doneEpoch != epoch {
			p.doneCond.Wait()
		}
		p.doneMu.Unlock()
		break
	}
}

// Close retires the worker pool's goroutines and waits for them to exit.
// Idempotent and a no-op on Workers <= 1 networks. Must not be called
// concurrently with Step. A closed network can still be stepped: with the
// pool gone the caller walks every phase, with identical results.
func (n *Network) Close() {
	p := n.workerPool
	if p == nil {
		return
	}
	n.workerPool = nil
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.workers.Wait()
}
