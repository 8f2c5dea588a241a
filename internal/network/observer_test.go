package network

import (
	"fmt"
	"testing"

	"ofar/internal/traffic"
)

// grantFunc is a test observer that hands every grant to a function and
// ignores deliveries and drops.
type grantFunc func(GrantEvent)

func (f grantFunc) grant(e GrantEvent)                      { f(e) }
func (grantFunc) deliver(int64, int32, int32, int64, int64) {}
func (grantFunc) drop(int64, int32, int32, int64)           {}

// streamLog is a test observer that keeps the first keep grants it receives
// and folds every event into its own digest the way the network's digest
// folds it, so two logs are equal only if their whole streams are.
type streamLog struct {
	keep   int
	grants []GrantEvent
	digest fnvDigest
}

func newStreamLog(keep int) *streamLog {
	return &streamLog{keep: keep, digest: fnvDigest{sum: fnvOffset}}
}

func (l *streamLog) grant(e GrantEvent) {
	if len(l.grants) < l.keep {
		l.grants = append(l.grants, e)
	}
	l.digest.fold(0, e.Cycle, int64(e.Router), int64(e.InPort), int64(e.InVC),
		int64(e.Out), int64(e.VC), int64(e.Src), int64(e.Dst), e.Born)
}

func (l *streamLog) deliver(now int64, src, dst int32, born, injected int64) {
	l.digest.fold(1, now, int64(src), int64(dst), born, injected)
}

func (l *streamLog) drop(now int64, src, dst int32, born int64) {
	l.digest.fold(2, now, int64(src), int64(dst), born)
}

// TestObserverStreamIsComplete: the observer receives every event the digest
// folds, in the digest's order — re-folding its stream reproduces
// GrantDigest exactly — on an h=2 run whose faults drop packets in buffers,
// in source queues, on the link and at dead destinations, at Workers 1 and
// 2 (the pool forced on).
func TestObserverStreamIsComplete(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = []Fault{
		{Cycle: 150, Kind: FaultLink, Router: 0, Port: cfg.P + cfg.A - 1},
		{Cycle: 300, Kind: FaultRouter, Router: 9},
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			cfg := cfg
			cfg.Workers = w
			n := mustPoolNet(t, cfg)
			n.EnableGrantDigest()
			log := newStreamLog(0)
			n.obs = log
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.6, cfg.PacketSize))
			n.Run(800)
			sum, count := n.GrantDigest()
			if log.digest.sum != sum || log.digest.count != count {
				t.Fatalf("observer re-folds %d events to %016x, the digest folded %d to %016x",
					log.digest.count, log.digest.sum, count, sum)
			}
			if n.Stats.Dropped == 0 || n.Stats.Delivered == 0 {
				t.Fatalf("%d drops, %d deliveries: the stream is missing a kind", n.Stats.Dropped, n.Stats.Delivered)
			}
		})
	}
}
