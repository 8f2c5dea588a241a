package network

import (
	"fmt"
	"testing"

	"ofar/internal/core"
	"ofar/internal/traffic"
)

// TestSaturatedRoutingPinned pins OFAR's blocked-head decision path, the
// one the goldens (UN at loads 0.2 and 0.05) barely reach: h=3 at offered
// load 1.0 for 1,500 cycles, under UN and ADV+3, for each candidate policy
// — the static default, the paper's variable policy, OFAR-L and
// least-occupied selection — at Workers 1 and 2 (pool forced). Every
// misroute decision's candidate set, threshold, headroom filter and random
// draw feeds the grant digest, so a change to any of them moves a literal.
func TestSaturatedRoutingPinned(t *testing.T) {
	variable := core.VariablePolicyConfig()
	least := core.DefaultConfig()
	least.LeastOccupied = true
	type want struct {
		digest uint64
		events int64
	}
	for _, tc := range []struct {
		name    string
		routing Routing
		ofar    core.Config
		un, adv want
	}{
		{"static", OFAR, core.DefaultConfig(), want{0xe65fe3496c12d7aa, 205570}, want{0x97d006813e3764da, 171195}},
		{"variable", OFAR, variable, want{0xb1d21dc8ec36dfe2, 203335}, want{0x74250b1b6756666d, 177474}},
		{"OFAR-L", OFARL, core.DefaultConfig(), want{0x64a14b585bcdba2c, 195917}, want{0x332a7fd1d3163840, 103614}},
		{"least-occupied", OFAR, least, want{0x7be42b904b65857f, 205637}, want{0x6758b43d29504ff2, 171163}},
	} {
		for _, adv := range []bool{false, true} {
			w, pat := tc.un, "UN"
			if adv {
				w, pat = tc.adv, "ADV+3"
			}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", tc.name, pat, workers), func(t *testing.T) {
					cfg := DefaultConfig(3).WithRouting(tc.routing)
					cfg.OFAR = tc.ofar
					cfg.Seed = 1
					cfg.Workers = workers
					n := mustPoolNet(t, cfg)
					var p traffic.Pattern = traffic.NewUniform(n.Topo)
					if adv {
						p = traffic.NewAdv(n.Topo, n.Topo.H)
					}
					n.SetGenerator(traffic.NewBernoulli(p, 1.0, cfg.PacketSize))
					n.EnableGrantDigest()
					n.Run(1500)
					if d, c := n.GrantDigest(); d != w.digest || c != w.events {
						t.Errorf("grant digest %016x over %d events, want %016x over %d", d, c, w.digest, w.events)
					}
				})
			}
		}
	}
}
