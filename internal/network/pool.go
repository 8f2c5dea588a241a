package network

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// stepPool is the persistent worker pool that walks the groups of a window
// when Config.Workers > 1 (see Network.pooled): one dispatch per window,
// whole groups stolen for all of its cycles. Network.New starts workers−1
// goroutines parked on the dispatch barrier and the caller of Run is the
// remaining worker, so the pool has exactly Config.PoolWidth computing
// participants. Network.Close retires the goroutines and hands every later
// window to the caller; an un-Closed Workers > 1 Network pins them (parked,
// but alive) for the life of the process.
//
// One epoch (runShards):
//
//  1. dispatch — the caller resets the group cursor and the pending count,
//     bumps the epoch under the dispatch mutex and broadcasts; the window is
//     already published in the network. Nothing is allocated.
//  2. steal    — every participant claims whole groups via an atomic cursor
//     and walks each. Which worker takes which group is unobservable: a walk
//     writes only group-owned state and the group's logs, and the routing
//     engine is stateless (a Route call records its read set on the
//     group-owned router), so every worker shares n.Engine.
//  3. join     — each parked worker decrements pending when the cursor runs
//     dry; the last one records the epoch in doneEpoch and signals. The
//     caller spins briefly, yields, then parks on the completion cond, and
//     afterwards merges the logs as it does after walking the groups itself.
//
// A panic in a parked worker's walk, which no recover of the Run caller
// reaches, is kept in panicked; the worker still reports in, and runShards
// re-panics the value on the caller once the epoch is joined.
type stepPool struct {
	// Hot shared state, reset at each dispatch.
	cursor  atomic.Int64 // next unclaimed group
	pending atomic.Int32 // parked workers still computing this epoch

	// Dispatch barrier: workers park on cond until epoch advances. The
	// window and cursor/pending are written by the caller before the epoch
	// bump, so the mutex hand-off publishes them to the workers.
	mu     sync.Mutex
	cond   sync.Cond
	epoch  uint64 // guarded by mu
	closed bool   // guarded by mu

	// Completion barrier: the last finisher of an epoch publishes it here.
	// Epoch-tagged (not a boolean) so a straggler signalling an old epoch
	// late can never satisfy a newer wait.
	doneMu    sync.Mutex
	doneCond  sync.Cond
	doneEpoch uint64 // guarded by doneMu

	panicked atomic.Pointer[any] // first value a worker's walk panicked with

	workers sync.WaitGroup // worker goroutine lifetimes, for Close
}

// startPool creates the pool and parks workers−1 goroutines on it. Worker 0
// is the Run caller; goroutines w = 1..workers−1 are the rest.
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
			p.mu.Unlock()

			p.recoverShare(n)

			if p.pending.Add(-1) == 0 {
				p.doneMu.Lock()
				p.doneEpoch = seen
				p.doneMu.Unlock()
				p.doneCond.Signal()
			}
		}
	})
}

// recoverShare is a parked worker's groupShare, keeping a panic for runShards.
func (p *stepPool) recoverShare(n *Network) {
	defer func() {
		if v := recover(); v != nil {
			kept := v // escapes; declared here so that only a panic allocates
			p.panicked.CompareAndSwap(nil, &kept)
		}
	}()
	n.groupShare(p)
}

// groupShare claims group IDs one at a time until the cursor runs dry and
// walks each through the window. There are only G claims per window, so
// cursor contention is negligible, and groups are the unit of ownership —
// nothing finer is safe, nothing coarser balances.
func (n *Network) groupShare(p *stepPool) {
	for {
		k := p.cursor.Add(1) - 1
		if k >= int64(len(n.gs)) {
			return
		}
		n.runGroup(int(k))
	}
}

// runShards dispatches one window to the pool — every participant, caller
// included, steals whole groups — and joins. The caller resumes only after
// every group's walk is done, with all effects on shared state parked in
// the per-group logs and outboxes for it to merge.
func (n *Network) runShards() {
	p := n.workerPool
	p.cursor.Store(0)
	p.pending.Store(int32(n.workers - 1))
	p.mu.Lock()
	p.epoch++
	epoch := p.epoch
	p.mu.Unlock()
	p.cond.Broadcast()

	n.groupShare(p)
	p.join(epoch)
	if v := p.panicked.Swap(nil); v != nil {
		panic(*v)
	}
}

// join waits for the epoch's parked workers to report in: spin first (a
// one-cycle window is tens of microseconds), then yield the P so parked-but-
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
// concurrently with Run. A closed network can still be run: with the pool
// gone the caller walks every window, with identical results.
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
