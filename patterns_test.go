package ofar

import "testing"

func TestParsePattern(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"UN", "UN", true},
		{"uniform", "UN", true},
		{" un ", "UN", true},
		{"ADV+1", "ADV+1", true},
		{"adv+12", "ADV+12", true},
		{"MIX1", "MIX1", true},
		{"mix3", "MIX3", true},
		{"ADV+0", "", false},
		{"ADV+x", "", false},
		{"MIX4", "", false},
		{"", "", false},
		{"bogus", "", false},
		{"ADV++2", "", false},
		{"PERMANENT", "", false},
		{"perm", "PERM(4)", true},
	}
	for _, c := range cases {
		ps, err := ParsePattern(c.in, 3)
		if c.ok != (err == nil) {
			t.Errorf("ParsePattern(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && ps.Name() != c.want {
			t.Errorf("ParsePattern(%q) = %q, want %q", c.in, ps.Name(), c.want)
		}
	}
}

func TestPaperMixWeights(t *testing.T) {
	// MIX components must reference ADV+1 and ADV+h.
	for _, h := range []int{2, 6} {
		for i, m := range paperMixes(h) {
			if len(m.mix) != 3 {
				t.Fatalf("h=%d MIX%d has %d components", h, i+1, len(m.mix))
			}
			if m.mix[1].Spec.Name() != "ADV+1" {
				t.Errorf("MIX%d second component %s", i+1, m.mix[1].Spec.Name())
			}
			if want := Adv(h).Name(); m.mix[2].Spec.Name() != want {
				t.Errorf("MIX%d third component %s want %s", i+1, m.mix[2].Spec.Name(), want)
			}
		}
	}
	// Weights follow 80/10/10, 60/20/20, 20/40/40.
	wants := [][]float64{{0.8, 0.1, 0.1}, {0.6, 0.2, 0.2}, {0.2, 0.4, 0.4}}
	for i, m := range paperMixes(3) {
		for j, c := range m.mix {
			if c.Weight != wants[i][j] {
				t.Errorf("MIX%d weight[%d]=%f want %f", i+1, j, c.Weight, wants[i][j])
			}
		}
	}
}

func TestPatternBuildAgainstTopology(t *testing.T) {
	s, err := NewSimulator(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d := s.Topology()
	for _, ps := range []PatternSpec{Uniform(), Adv(1), Adv(8), paperMixes(2)[0]} {
		p := ps.build(d)
		if p == nil {
			t.Fatalf("%s built nil", ps.Name())
		}
	}
}
