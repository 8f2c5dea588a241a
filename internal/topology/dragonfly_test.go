package topology

import (
	"testing"
	"testing/quick"
)

func mustDF(t *testing.T, p, a, h, g int) *Dragonfly {
	t.Helper()
	d, err := New(p, a, h, g)
	if err != nil {
		t.Fatalf("New(%d,%d,%d,%d): %v", p, a, h, g, err)
	}
	return d
}

func TestNewBalancedSizes(t *testing.T) {
	cases := []struct {
		h                 int
		groups, rtrs, nds int
	}{
		{1, 3, 6, 6},
		{2, 9, 36, 72},
		{3, 19, 114, 342},
		{6, 73, 876, 5256},
		{16, 513, 16416, 262656},
	}
	for _, c := range cases {
		d, err := NewBalanced(c.h)
		if err != nil {
			t.Fatalf("h=%d: %v", c.h, err)
		}
		if d.G != c.groups || d.Routers != c.rtrs || d.Nodes != c.nds {
			t.Errorf("h=%d: got G=%d routers=%d nodes=%d, want %d/%d/%d",
				c.h, d.G, d.Routers, d.Nodes, c.groups, c.rtrs, c.nds)
		}
		if want := 4*c.h - 1; d.RouterPorts != want {
			t.Errorf("h=%d: RouterPorts=%d want %d", c.h, d.RouterPorts, want)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(0, 2, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := New(1, 2, 1, 4); err == nil {
		t.Error("groups beyond a*h+1 accepted")
	}
	if _, err := New(1, 2, 1, -1); err == nil {
		t.Error("negative groups accepted")
	}
	if _, err := New(200, 50, 8, 1); err == nil {
		t.Error("257 ports per router accepted: the routing tables hold 8-bit ports")
	}
	if _, err := New(200, 50, 7, 1); err != nil {
		t.Errorf("256 ports per router refused: %v", err)
	}
}

func TestValidateBalanced(t *testing.T) {
	for _, h := range []int{1, 2, 3, 4} {
		d, err := NewBalanced(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("h=%d: %v", h, err)
		}
	}
}

func TestCoordinateRoundTrips(t *testing.T) {
	d := mustDF(t, 3, 6, 3, 0)
	for n := 0; n < d.Nodes; n++ {
		r := d.RouterOf(n)
		if got := d.NodeAt(r, d.NodeSlot(n)); got != n {
			t.Fatalf("node %d round trip -> %d", n, got)
		}
		if d.GroupOfNode(n) != d.GroupOf(r) {
			t.Fatalf("node %d group mismatch", n)
		}
	}
	for r := 0; r < d.Routers; r++ {
		if got := d.RouterAt(d.GroupOf(r), d.LocalIndex(r)); got != r {
			t.Fatalf("router %d round trip -> %d", r, got)
		}
	}
}

func TestLocalPortSymmetry(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0)
	for g := 0; g < d.G; g++ {
		for i := 0; i < d.A; i++ {
			for j := 0; j < d.A; j++ {
				if i == j {
					continue
				}
				r, tr := d.RouterAt(g, i), d.RouterAt(g, j)
				port := d.LocalPortTo(r, tr)
				if k := d.PortKindOf(port); k != PortLocal {
					t.Fatalf("LocalPortTo(%d,%d)=%d kind %v", r, tr, port, k)
				}
				kind, peer, peerPort := d.Peer(r, port)
				if kind != PortLocal || peer != tr {
					t.Fatalf("Peer(%d,%d) = %v,%d", r, port, kind, peer)
				}
				if _, back, _ := d.Peer(tr, peerPort); back != r {
					t.Fatalf("local wiring not symmetric at %d:%d", r, port)
				}
			}
		}
	}
}

func TestGlobalWiringOnePerGroupPair(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0) // h=2 max size
	seen := make(map[[2]int]int)
	for r := 0; r < d.Routers; r++ {
		for p := d.GlobalPortBase(); p < d.RouterPorts; p++ {
			kind, peer, _ := d.Peer(r, p)
			if kind != PortGlobal {
				t.Fatalf("router %d port %d kind %v", r, p, kind)
			}
			seen[[2]int{d.GroupOf(r), d.GroupOf(peer)}]++
		}
	}
	for a := 0; a < d.G; a++ {
		for b := 0; b < d.G; b++ {
			if a == b {
				continue
			}
			if seen[[2]int{a, b}] != 1 {
				t.Fatalf("group pair (%d,%d) has %d links, want 1", a, b, seen[[2]int{a, b}])
			}
		}
	}
}

func TestGlobalEntryMatchesWiring(t *testing.T) {
	d := mustDF(t, 3, 6, 3, 0)
	for src := 0; src < d.G; src++ {
		for dst := 0; dst < d.G; dst++ {
			if src == dst {
				continue
			}
			r, port := d.GlobalEntry(src, dst)
			if d.GroupOf(r) != src {
				t.Fatalf("GlobalEntry(%d,%d) router %d not in src group", src, dst, r)
			}
			kind, peer, _ := d.Peer(r, port)
			if kind != PortGlobal || d.GroupOf(peer) != dst {
				t.Fatalf("GlobalEntry(%d,%d) wired to group %d", src, dst, d.GroupOf(peer))
			}
		}
	}
}

// TestMinimalPortReachesDestination walks minimal ports hop by hop and checks
// every node pair is connected within the diameter (3 hops).
func TestMinimalPortReachesDestination(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0)
	for src := 0; src < d.Nodes; src += 5 {
		for dst := 0; dst < d.Nodes; dst += 3 {
			if src == dst {
				continue
			}
			r := d.RouterOf(src)
			hops := 0
			for {
				port := d.MinimalPort(r, dst)
				kind, peer, _ := d.Peer(r, port)
				if kind == PortNode {
					if peer != dst {
						t.Fatalf("src %d dst %d delivered to %d", src, dst, peer)
					}
					break
				}
				r = peer
				hops++
				if hops > 3 {
					t.Fatalf("src %d dst %d exceeded diameter", src, dst)
				}
			}
			if want := d.MinimalHops(src, dst); hops != want {
				t.Fatalf("src %d dst %d hops %d, MinimalHops says %d", src, dst, hops, want)
			}
		}
	}
}

func TestMinimalPortQuick(t *testing.T) {
	d := mustDF(t, 3, 6, 3, 0)
	f := func(s, ds uint32) bool {
		src := int(s) % d.Nodes
		dst := int(ds) % d.Nodes
		if src == dst {
			return true
		}
		r := d.RouterOf(src)
		for hops := 0; hops <= 3; hops++ {
			port := d.MinimalPort(r, dst)
			kind, peer, _ := d.Peer(r, port)
			if kind == PortNode {
				return peer == dst
			}
			r = peer
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPortToGroup(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0)
	for r := 0; r < d.Routers; r++ {
		for tg := 0; tg < d.G; tg++ {
			if tg == d.GroupOf(r) {
				continue
			}
			port := d.PortToGroup(r, tg)
			kind, peer, _ := d.Peer(r, port)
			switch kind {
			case PortGlobal:
				if d.GroupOf(peer) != tg {
					t.Fatalf("router %d PortToGroup(%d) lands in group %d", r, tg, d.GroupOf(peer))
				}
			case PortLocal:
				entry, _ := d.GlobalEntry(d.GroupOf(r), tg)
				if peer != entry {
					t.Fatalf("router %d PortToGroup(%d) local hop to %d, want entry %d", r, tg, peer, entry)
				}
			default:
				t.Fatalf("router %d PortToGroup(%d) kind %v", r, tg, kind)
			}
		}
	}
}

// minimalPortArith and portToGroupArith are the coordinate arithmetic the
// forwarding tables replaced, kept as their oracle.
func minimalPortArith(d *Dragonfly, r, dst int) int {
	dr := d.RouterOf(dst)
	if dr == r {
		return d.NodePort(d.NodeSlot(dst))
	}
	if dg := d.GroupOf(dr); dg != d.GroupOf(r) {
		return portToGroupArith(d, r, dg)
	}
	return d.LocalPortTo(r, dr)
}

func portToGroupArith(d *Dragonfly, r, tg int) int {
	entry, port := d.GlobalEntry(d.GroupOf(r), tg)
	if entry == r {
		return port
	}
	return d.LocalPortTo(r, entry)
}

// minimalHopsArith counts the l–g–l hops from the wiring arithmetic: the
// global hop, plus a local one on each side whose router does not own the
// link.
func minimalHopsArith(d *Dragonfly, src, dst int) int {
	sr, dr := d.RouterOf(src), d.RouterOf(dst)
	if sr == dr {
		return 0
	}
	sg, dg := d.GroupOf(sr), d.GroupOf(dr)
	if sg == dg {
		return 1
	}
	h := 1
	entry, port := d.GlobalEntry(sg, dg)
	if entry != sr {
		h++
	}
	if _, exit, _ := d.Peer(entry, port); exit != dr {
		h++
	}
	return h
}

// TestTablesMatchArithmetic: the table-driven MinimalPort and PortToGroup
// equal the arithmetic for every (router, node) and every (router, other
// group) pair, on balanced networks at h = 2, 3, 4 and 6 and on an
// unbalanced, undersized one; so does MinimalHops, which walks the tables,
// from one router of each group to every node.
func TestTablesMatchArithmetic(t *testing.T) {
	for _, c := range []struct{ p, a, h, g int }{
		{2, 4, 2, 0}, {3, 6, 3, 0}, {4, 8, 4, 0}, {6, 12, 6, 0}, {3, 5, 2, 7},
	} {
		d := mustDF(t, c.p, c.a, c.h, c.g)
		for r := 0; r < d.Routers; r++ {
			for dst := 0; dst < d.Nodes; dst++ {
				if got, want := d.MinimalPort(r, dst), minimalPortArith(d, r, dst); got != want {
					t.Fatalf("%+v: MinimalPort(%d, %d) = %d, arithmetic says %d", c, r, dst, got, want)
				}
				if src := d.NodeAt(r, 0); d.LocalIndex(r) == 0 && d.MinimalHops(src, dst) != minimalHopsArith(d, src, dst) {
					t.Fatalf("%+v: MinimalHops(%d, %d) = %d, arithmetic says %d", c, src, dst, d.MinimalHops(src, dst), minimalHopsArith(d, src, dst))
				}
			}
			for tg := 0; tg < d.G; tg++ {
				if tg == d.GroupOf(r) {
					continue
				}
				if got, want := d.PortToGroup(r, tg), portToGroupArith(d, r, tg); got != want {
					t.Fatalf("%+v: PortToGroup(%d, %d) = %d, arithmetic says %d", c, r, tg, got, want)
				}
			}
		}
	}
}

func TestMinimalHopsDistribution(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0)
	// Within a router: 0 hops; same group: 1; remote group: 1..3.
	if got := d.MinimalHops(0, 1); got != 0 {
		t.Errorf("same-router hops=%d", got)
	}
	if got := d.MinimalHops(0, d.P*1); got != 1 {
		t.Errorf("same-group hops=%d", got)
	}
	for dst := 0; dst < d.Nodes; dst++ {
		h := d.MinimalHops(0, dst)
		if h < 0 || h > 3 {
			t.Fatalf("hops out of range: %d", h)
		}
	}
}

func TestPortKindOf(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 0)
	wants := []struct {
		port int
		kind PortKind
	}{
		{0, PortNode}, {1, PortNode},
		{2, PortLocal}, {4, PortLocal},
		{5, PortGlobal}, {6, PortGlobal},
		{7, PortRing},
		{-1, PortNone},
	}
	for _, w := range wants {
		if got := d.PortKindOf(w.port); got != w.kind {
			t.Errorf("PortKindOf(%d)=%v want %v", w.port, got, w.kind)
		}
	}
}

func TestUndersizedNetworkUnwiredPorts(t *testing.T) {
	d := mustDF(t, 2, 4, 2, 5) // 5 of max 9 groups
	none := 0
	for r := 0; r < d.Routers; r++ {
		for p := d.GlobalPortBase(); p < d.RouterPorts; p++ {
			kind, _, _ := d.Peer(r, p)
			if kind == PortNone {
				none++
			} else if kind != PortGlobal {
				t.Fatalf("unexpected kind %v", kind)
			}
		}
	}
	// Each group has G-1=4 wired links out of a*h=8 ports.
	if want := d.G * (8 - 4); none != want {
		t.Errorf("unwired ports = %d, want %d", none, want)
	}
	// Wired pairs must still be consistent.
	for src := 0; src < d.G; src++ {
		for dst := 0; dst < d.G; dst++ {
			if src == dst {
				continue
			}
			r, port := d.GlobalEntry(src, dst)
			kind, peer, _ := d.Peer(r, port)
			if kind != PortGlobal || d.GroupOf(peer) != dst {
				t.Fatalf("GlobalEntry(%d,%d) broken on undersized network", src, dst)
			}
		}
	}
}

func TestAdvValiantLocalCap(t *testing.T) {
	d := mustDF(t, 6, 12, 6, 0) // the paper's h=6 network
	atH := d.AdvValiantLocalCap(d.H)
	at1 := d.AdvValiantLocalCap(1)
	// ADV+h concentrates h flows on one local link: cap ≈ 1/h (paper §III).
	if atH > 0.2 || atH < 0.1 {
		t.Errorf("ADV+h cap = %f, want ≈ 1/h = %f", atH, 1.0/float64(d.H))
	}
	// ADV+1 leaves local links essentially unloaded: cap above the 0.5
	// global-link bound, so globals dominate.
	if at1 <= 0.5 {
		t.Errorf("ADV+1 cap = %f, want > 0.5", at1)
	}
	at2H := d.AdvValiantLocalCap(2 * d.H)
	if at2H > 0.2 {
		t.Errorf("ADV+2h cap = %f, want ≈ 1/h", at2H)
	}
}

func TestAnalyticBounds(t *testing.T) {
	d := mustDF(t, 6, 12, 6, 0)
	if got := d.MinGlobalWorstCaseThroughput(); got != 1.0/72 {
		t.Errorf("global worst case %f", got)
	}
	if got := d.MinLocalWorstCaseThroughput(); got != 1.0/6 {
		t.Errorf("local worst case %f", got)
	}
	if got := d.ValiantLocalSaturationBound(); got != 1.0/6 {
		t.Errorf("valiant local bound %f", got)
	}
}
