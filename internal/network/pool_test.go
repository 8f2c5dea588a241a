package network

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/traffic"
)

// TestStepZeroAllocSteadyState pins the perf contract of the cycle loop: a
// warmed-up Step performs no allocations — serial or pooled, phase timing on
// or off — and neither does a warmed-up Run of lookahead windows. The pooled
// cases force the cutover to 1 so every window dispatches to the pool
// (AllocsPerRun runs under GOMAXPROCS=1, where the auto cutover would
// otherwise keep every window on the caller). Each case warms up in the
// call shape it measures — a window's length decides which events pass
// through the shared wheel, so Step-sized and Run(20)-sized steady states
// differ. Amortized growth of long-lived slices (source queues, the timing
// wheel, the window logs) is allowed for by a fractional tolerance. (The
// "/sched" in two case names dates from a scheduler on/off dimension; kept so
// test IDs stay stable.)
func TestStepZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		timed   bool
		h6      bool
		chunk   int  // cycles per measured call: Step when 0
		digest  bool // the grant digest on: the merge logs and folds every grant
	}{
		{name: "serial/sched"},
		{name: "serial/timed", timed: true},
		{name: "serial/digest", digest: true},
		{name: "workers4/sched", workers: 4},
		{name: "workers4/timed", workers: 4, timed: true},
		{name: "workers4/digest", workers: 4, digest: true},
		// The paper's scale (ROADMAP 1(d)): UN at load 0.3, warmed 2,000
		// cycles, then snapshotted and restored in place — the window the
		// benchmark measures, which used to re-grow a rebuilt wheel (~1
		// alloc and ~40 KB a cycle). Non-short: the warm-up is seconds a case.
		{name: "h6/serial", h6: true},
		{name: "h6/workers4", workers: 4, h6: true},
		// The benchmark's own call: Run(20), twenty-cycle windows. Each of
		// the 73 groups' small wheels and logs still meets a new peak now and
		// then, a few KB each, so the bound is amortized: well under one
		// allocation a cycle.
		{name: "h6/run20", h6: true, chunk: 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, load, warm := 2, 0.4, 3000
			if tc.h6 {
				if testing.Short() {
					t.Skip("h=6 warm-up in -short")
				}
				h, load, warm = 6, 0.3, 2000
			}
			cfg := DefaultConfig(h)
			cfg.Workers = tc.workers
			n := mustPoolNet(t, cfg)
			if tc.timed {
				n.EnablePhaseTimings()
			}
			if tc.digest {
				n.EnableGrantDigest()
			}
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
			chunk := max(1, tc.chunk)
			op := func() { n.Run(chunk) }
			for i := 0; i < warm/chunk; i++ {
				op() // steady state: pools, queues, the wheel and logs at capacity
			}
			if h == 6 {
				if err := n.Restore(bytes.NewReader(snapshotBytes(t, n))); err != nil {
					t.Fatal(err)
				}
			}
			runs := 300 / chunk
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			allocs := testing.AllocsPerRun(runs, op) / float64(chunk)
			runtime.ReadMemStats(&m1)
			limit := 0.02
			if tc.chunk > 1 {
				limit = 0.25
			}
			if allocs > limit {
				t.Fatalf("steady-state cycle allocates: %.3f allocs/cycle, want ≤ %g", allocs, limit)
			}
			if b := (m1.TotalAlloc - m0.TotalAlloc) / uint64((runs+1)*chunk); b > 4096 {
				t.Fatalf("steady-state cycle allocates %d B, want amortized growth only (≤ 4096)", b)
			}
		})
	}
}

// TestPoolCloseIdempotent: Close must be callable any number of times, on
// parallel and serial networks alike, including before any Step.
func TestPoolCloseIdempotent(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Workers = 4
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
	n.Run(50)
	n.Close()
	n.Close()
	n.Close()

	serial := mustNet(t, testConfig(OFAR))
	serial.Close() // no pool: must be a no-op
	serial.Close()

	fresh := mustNet(t, cfg)
	fresh.Close() // never stepped: workers parked since construction
}

// TestPoolGoroutineLeak: constructing a parallel network starts Workers−1
// goroutines; Close must retire all of them (it waits for their exit). The
// final NumGoroutine comparison polls briefly because a goroutine may be
// counted for an instant after its WaitGroup.Done.
func TestPoolGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(2)
	cfg.Workers = 8
	n := mustPoolNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
	n.Run(100) // exercise the pool, not just park/unpark
	if got := runtime.NumGoroutine(); got < before+7 {
		t.Fatalf("expected ≥ %d goroutines while the pool is live, have %d", before+7, got)
	}
	n.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := runtime.NumGoroutine(); got <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// goid is the running goroutine's ID, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// panicAt wraps an engine so Route panics from cycle at on, but only on
// goroutines other than caller: the walk that panics is a pool worker's. The
// caller's own Route calls yield, so a single-P scheduler still hands the
// worker a group.
type panicAt struct {
	router.Engine
	at     int64
	caller uint64
}

const workerPanic = "engine fault on a pool worker"

func (e panicAt) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	if now >= e.at {
		if goid() != e.caller {
			panic(workerPanic)
		}
		runtime.Gosched()
	}
	return e.Engine.Route(rt, in, p, now)
}

// TestPoolWorkerPanicReachesCaller: a panic on a pool goroutine is recovered
// there, its epoch still joins, and Run re-panics the value on the caller,
// who can recover it; Close then returns. Unrecovered, the worker's panic
// would end the test binary.
func TestPoolWorkerPanicReachesCaller(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Workers = 2
	n := mustPoolNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
	n.Engine = panicAt{Engine: n.Engine, at: 100, caller: goid()}
	got := func() (v any) {
		defer func() { v = recover() }()
		n.Run(2000)
		return nil
	}()
	if got != workerPanic {
		t.Fatalf("Run recovered %v, want the worker's panic %q", got, workerPanic)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		n.Close()
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after a worker panic")
	}
}

// cutoverRun drives a loaded 4-worker h=2 network under the given cutover
// (0 keeps the auto-calibrated one) and returns how many epochs the pool
// served plus the grant digest.
func cutoverRun(t *testing.T, cutover int, shard bool) (epochs, digest uint64, events int64) {
	cfg := DefaultConfig(2)
	cfg.Workers = 4
	cfg.ShardByGroup = shard
	n := mustNet(t, cfg)
	if cutover > 0 {
		n.setCutover(cutover)
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
	n.EnableGrantDigest()
	n.Run(600)
	digest, events = n.GrantDigest()
	return n.workerPool.epoch, digest, events // no Step in flight: the workers are parked
}

// TestParallelCutoverInvariance: the cutover decides only *who* walks a
// window's groups, never what they compute — digests must match between a run
// that always dispatches to the pool (cutover 1), one that never does
// (cutover above the router count), and the auto-calibrated default.
func TestParallelCutoverInvariance(t *testing.T) {
	_, wantD, wantC := cutoverRun(t, 0, false)
	for _, cut := range []int{1, 10000} {
		if _, d, c := cutoverRun(t, cut, false); d != wantD || c != wantC {
			t.Fatalf("cutover=%d: digest %016x (%d) != auto %016x (%d)", cut, d, c, wantD, wantC)
		}
	}
}

// TestCutoverRoutesShortLists instruments the dispatch decision itself: with
// a cutover above the router count every Step must stay on the caller (the
// pool's epoch never advances), and with cutover 1 a loaded network must
// dispatch — the same number of epochs whatever the ignored ShardByGroup
// field says, with the same digest.
func TestCutoverRoutesShortLists(t *testing.T) {
	if got, _, _ := cutoverRun(t, 10000, false); got != 0 {
		t.Fatalf("cutover above router count still dispatched %d epochs to the pool", got)
	}
	plain, plainD, _ := cutoverRun(t, 1, false)
	if plain == 0 {
		t.Fatal("cutover=1 never dispatched a loaded network's cycle to the pool")
	}
	if shard, shardD, _ := cutoverRun(t, 1, true); shard != plain || shardD != plainD {
		t.Fatalf("ShardByGroup changed the run: %d epochs digest %016x, want %d epochs digest %016x", shard, shardD, plain, plainD)
	}
}

// TestStepAfterCloseRunsSerial: Close hands every later Step to the caller
// (it used to leave Step dispatching to a pool nobody answers, a deadlock);
// the closed network stays digest-identical to a twin that was never closed.
func TestStepAfterCloseRunsSerial(t *testing.T) {
	mk := func() *Network {
		cfg := DefaultConfig(2)
		cfg.Workers = 4
		n := mustPoolNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
		n.EnableGrantDigest()
		n.Run(200)
		return n
	}
	closed, open := mk(), mk()
	closed.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		closed.Run(200)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Step after Close did not return")
	}
	open.Run(200)
	cd, cc := closed.GrantDigest()
	od, oc := open.GrantDigest()
	if cd != od || cc != oc {
		t.Fatalf("closed network diverged: digest %016x (%d) != never-closed %016x (%d)", cd, cc, od, oc)
	}
}

// BenchmarkPoolDispatch isolates the barrier itself: a nearly idle parallel
// network with the cutover forced to 1 pays a full dispatch+join round trip
// per pooled phase with almost no compute to amortize it — the number the
// cutover calibration is built on (compare against the serial row).
func BenchmarkPoolDispatch(b *testing.B) {
	for _, workers := range []int{0, 4, 8} {
		name := "serial"
		if workers > 0 {
			name = fmt.Sprintf("workers%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(3)
			cfg.Workers = workers
			n := mustPoolNet(b, cfg)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.02, cfg.PacketSize))
			n.Run(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}
