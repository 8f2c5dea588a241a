package network

import (
	"bytes"
	"testing"

	"ofar/internal/traffic"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to Restore. The contract under
// fuzz: corrupt input must return an error — never panic, never leave a
// silently-wrong simulator behind an accepted restore. When Restore accepts
// the input, the state must be genuinely valid: re-snapshotting must
// reproduce a restorable image with identical router fingerprints, and
// stepping the restored network must preserve packet conservation.
//
// The seed corpus holds real snapshots — cold, warm, warm-with-faults and
// warm with every observer on — and well-formed hostile images, so mutations
// explore the format's interior, not just the magic check.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := DefaultConfig(2)
	cfg.Seed = 5

	warm := func(withFault bool, setup func(*Network)) *Network {
		c := cfg
		if withFault {
			c.Faults = []Fault{{Cycle: 60, Kind: FaultRouter, Router: 3}}
		}
		n, err := New(c)
		if err != nil {
			f.Fatal(err)
		}
		n.EnableGrantDigest()
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.6, c.PacketSize))
		if setup != nil {
			setup(n)
		}
		return n
	}
	seed := func(cycles int, withFault bool, setup func(*Network)) []byte {
		n := warm(withFault, setup)
		n.Run(cycles)
		return snapshotBytes(f, n)
	}
	f.Add(seed(0, false, nil))
	f.Add(seed(150, false, nil))
	f.Add(seed(150, true, nil)) // config mismatch vs the target: exercises rejection
	f.Add(seed(150, false, func(n *Network) {
		n.EnableGrantDigest()
		n.Stats.EnableSeries(50)
		n.Stats.EnableHistogram()
		n.Stats.EnableUtilization(len(n.Routers), len(n.Routers[0].Out))
		n.Stats.StartMeasurement(0)
	}))
	// Checksum-valid state that does not fit the network.
	f.Add(hostileUtilization(f, warm(false, nil)))
	f.Add(hostileState(f, warm(false, nil), func(n *Network) {
		n.Routers[4].Out[n.Topo.LocalPortBase()].Peer = 1 << 20
	}))
	f.Add(hostileState(f, warm(false, nil), func(n *Network) {
		_, out := n.Routers[4].ArbiterRanks(n.Topo.LocalPortBase())
		out[0] = out[1]
	}))
	// A credit event returning one phit short of a packet.
	f.Add(hostileRecord(f, warm(false, nil), creditPhits, int64(cfg.PacketSize), int64(cfg.PacketSize-1)))
	// Valid header and checksum, a packet count far beyond the payload: the
	// decoder must size its packet block by the bytes present.
	cold, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hostilePacketCount(f, cold, 1<<20, 100))
	f.Add([]byte("OFARSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.6, cfg.PacketSize))
		if err := n.Restore(bytes.NewReader(data)); err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}

		// Accepted: the image must round-trip to an identical simulator...
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(m.Topo), 0.6, cfg.PacketSize))
		if err := m.Restore(&buf); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		for i := range n.Routers {
			if a, b := n.Routers[i].StateFingerprint(), m.Routers[i].StateFingerprint(); a != b {
				t.Fatalf("router %d fingerprint diverged after round trip: %016x != %016x", i, a, b)
			}
		}

		// ...and stepping it must keep the conservation identity.
		n.Run(50)
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("restored simulator violates conservation: %v", err)
		}
	})
}
