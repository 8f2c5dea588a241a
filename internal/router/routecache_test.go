package router

import (
	"math"
	"testing"

	"ofar/internal/packet"
)

// cacheScriptEngine is a scriptable engine that counts Route calls, so tests
// can pin exactly when the route cache recomputes versus replays. Every call
// records its read set through deps before deciding.
type cacheScriptEngine struct {
	calls int
	route func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool)
	deps  func(rt *Router, now int64)
}

func (e *cacheScriptEngine) AtInjection(*Router, *packet.Packet, int64) {}
func (e *cacheScriptEngine) Route(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
	e.calls++
	e.deps(rt, now)
	return e.route(rt, in, p, now)
}

// port2Deps records a read set of output port 2 only, no time dependence.
func port2Deps(rt *Router, _ int64) {
	rt.NoteRead(2)
	rt.NoteExpiry(math.MaxInt64)
}

// TestRouteCacheStableBlockedHead: a blocked head whose read set does not
// change is evaluated exactly once, however many cycles pass; a credit refund
// on a read port forces one re-evaluation.
func TestRouteCacheStableBlockedHead(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(*Router, InCtx, *packet.Packet, int64) (Request, bool) { return Request{}, false },
		deps:  port2Deps,
	}
	r.Out[2].Take(0) // headroom so the refund below is legal
	push(r, 0, 0, &pool)
	for now := int64(0); now < 5; now++ {
		r.Cycle(eng, now)
	}
	if eng.calls != 1 {
		t.Fatalf("blocked head with stable deps evaluated %d times, want 1", eng.calls)
	}
	r.AddCredit(2, 0) // epoch bump on the read port
	for now := int64(5); now < 8; now++ {
		r.Cycle(eng, now)
	}
	if eng.calls != 2 {
		t.Fatalf("credit refund triggered %d re-evaluations, want exactly 1 (calls=2)", eng.calls)
	}
}

// TestRouteCacheBusyTransitions: the allocation loser is re-evaluated once
// after the winner's commit (the commit bumps the output's epoch), caches its
// blocked result while the port serializes, and is re-evaluated again when
// the busy deadline expires (expireBusy dirties the port).
func TestRouteCacheBusyTransitions(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
			if rt.Out[2].Busy(now) {
				return Request{}, false
			}
			return Request{Out: 2, VC: 0}, true
		},
		deps: port2Deps,
	}
	push(r, 0, 0, &pool)
	push(r, 1, 0, &pool)
	if grants := r.Cycle(eng, 0); len(grants) != 1 || eng.calls != 2 {
		t.Fatalf("cycle 0: %d grants, %d calls; want 1 grant from 2 evaluations", len(grants), eng.calls)
	}
	// Cycles 1..7: output 2 is serializing the winner (8 phits). The loser
	// re-evaluates once at cycle 1 (the commit moved the epoch), sees the
	// busy port, and the blocked result is then replayed.
	for now := int64(1); now < 8; now++ {
		if g := r.Cycle(eng, now); len(g) != 0 {
			t.Fatalf("cycle %d: unexpected grant while output busy", now)
		}
	}
	if eng.calls != 3 {
		t.Fatalf("busy window re-evaluated %d times, want exactly 1 (calls=3)", eng.calls)
	}
	// Cycle 8: the busy deadline expires; the scan bumps the epoch and the
	// loser is re-evaluated and granted.
	if grants := r.Cycle(eng, 8); len(grants) != 1 || eng.calls != 4 {
		t.Fatalf("cycle 8: %d grants, %d calls; want the freed port re-evaluated and granted", len(grants), eng.calls)
	}
}

// TestRouteCacheBanksWindowOfBusyInput: an invalidation that lands while the
// entry's input port is serializing another VC's packet is not lost. Two VCs
// of input port 0 hold heads whose decisions read output 2 (full, so both
// detour to output 1); one wins and port 0 is busy for 8 cycles, during which
// formRequests skips the loser's entry. A credit refund on output 2 at cycle
// 3 is drained into that cycle's window — the only window that ever carries
// it — so it must be banked in pendingDirty: at cycle 8, the first with port
// 0 free, the loser is re-evaluated exactly once and takes output 2.
func TestRouteCacheBanksWindowOfBusyInput(t *testing.T) {
	r := testRouter(t, 2)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
			if rt.Out[2].Credits(0) > 0 {
				return Request{Out: 2, VC: 0}, true
			}
			return Request{Out: 1, VC: 0}, true
		},
		deps: port2Deps,
	}
	r.Out[2].SetCredits(0, 0) // output 2 VC 0 has no credits
	push(r, 0, 0, &pool)
	push(r, 0, 1, &pool)
	if g := r.Cycle(eng, 0); len(g) != 1 || g[0].Req.Out != 1 || eng.calls != 2 {
		t.Fatalf("cycle 0: grants %+v, %d calls; want one detour grant from 2 evaluations", g, eng.calls)
	}
	for now := int64(1); now < 8; now++ {
		if now == 3 {
			r.AddCredit(2, 0)
		}
		if g := r.Cycle(eng, now); len(g) != 0 {
			t.Fatalf("cycle %d: unexpected grant while input port 0 serializes", now)
		}
	}
	if eng.calls != 2 {
		t.Fatalf("busy input port evaluated %d times during its span, want 0 (calls=2)", eng.calls-2)
	}
	g := r.Cycle(eng, 8)
	if eng.calls != 3 {
		t.Fatalf("cycle 8: calls=%d, want 3: the refund of cycle 3 must invalidate the loser's entry exactly once", eng.calls)
	}
	if len(g) != 1 || g[0].InVC != 1 || g[0].Req.Out != 2 {
		t.Fatalf("cycle 8: grants %+v; want the loser (VC 1) granted output 2, not a replay of the stale detour", g)
	}
}

// TestRouteCacheHeadReplacement: draining the head invalidates the cached
// decision, so the next head is evaluated fresh.
func TestRouteCacheHeadReplacement(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
			if rt.Out[2].Busy(now) {
				return Request{}, false
			}
			return Request{Out: 2, VC: 0}, true
		},
		deps: port2Deps,
	}
	first := push(r, 0, 0, &pool)
	push(r, 0, 0, &pool) // queued behind the head
	if grants := r.Cycle(eng, 0); len(grants) != 1 || eng.calls != 1 {
		t.Fatalf("cycle 0: %d grants, %d calls", len(grants), eng.calls)
	}
	if h, _, _ := r.FinishDrain(0, 0); r.pkts.At(h) != first {
		t.Fatal("FinishDrain returned another packet than the head")
	}
	if grants := r.Cycle(eng, 8); len(grants) != 1 || eng.calls != 2 {
		t.Fatalf("new head: %d grants, %d calls; want fresh evaluation and grant", len(grants), eng.calls)
	}
}

// TestRouteCacheNeverCachesRNGDraws: a decision that consumed randomness is
// recomputed every cycle — replaying it would skip the draws and
// desynchronize the router's RNG stream.
func TestRouteCacheNeverCachesRNGDraws(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(rt *Router, in InCtx, p *packet.Packet, now int64) (Request, bool) {
			rt.RandInt(2)
			return Request{}, false
		},
		deps: port2Deps,
	}
	push(r, 0, 0, &pool)
	for now := int64(0); now < 4; now++ {
		r.Cycle(eng, now)
	}
	if eng.calls != 4 {
		t.Fatalf("RNG-drawing decision evaluated %d times over 4 cycles, want 4", eng.calls)
	}
}

// TestRouteCacheExpiry: a decision that reports a time expiry is replayed
// until that cycle and recomputed exactly then (OFAR's escape-timeout
// threshold is the production case).
func TestRouteCacheExpiry(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(*Router, InCtx, *packet.Packet, int64) (Request, bool) { return Request{}, false },
		deps: func(rt *Router, now int64) {
			port2Deps(rt, now)
			rt.NoteExpiry(now + 3)
		},
	}
	push(r, 0, 0, &pool)
	for now := int64(0); now < 9; now++ {
		r.Cycle(eng, now)
	}
	if eng.calls != 3 {
		t.Fatalf("expiring decision evaluated %d times over 9 cycles, want 3 (cycles 0, 3, 6)", eng.calls)
	}
}

// TestRouteCacheFailOutputInvalidates: killing a link the decision read
// forces a re-evaluation.
func TestRouteCacheFailOutputInvalidates(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(*Router, InCtx, *packet.Packet, int64) (Request, bool) { return Request{}, false },
		deps:  port2Deps,
	}
	push(r, 0, 0, &pool)
	r.Cycle(eng, 0)
	r.Cycle(eng, 1)
	if eng.calls != 1 {
		t.Fatalf("calls=%d before fault, want 1", eng.calls)
	}
	r.FailOutput(2)
	r.Cycle(eng, 2)
	if eng.calls != 2 {
		t.Fatalf("FailOutput on a read port triggered %d evaluations, want a re-evaluation (calls=2)", eng.calls)
	}
}

// TestRouteCacheNoExpiryNeverReplayed: a call that records reads but notes
// no expiry is recomputed every cycle, however stable its read set — the
// rule that keeps PAR, whose calls note none, uncached.
func TestRouteCacheNoExpiryNeverReplayed(t *testing.T) {
	r := testRouter(t, 1)
	r.EnableRouteCache()
	var pool packet.Pool
	eng := &cacheScriptEngine{
		route: func(*Router, InCtx, *packet.Packet, int64) (Request, bool) { return Request{}, false },
		deps:  func(rt *Router, _ int64) { rt.NoteRead(2) },
	}
	push(r, 0, 0, &pool)
	for now := int64(0); now < 4; now++ {
		r.Cycle(eng, now)
	}
	if eng.calls != 4 {
		t.Fatalf("expiry-less decision evaluated %d times over 4 cycles, want 4", eng.calls)
	}
}
