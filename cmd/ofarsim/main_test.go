package main

import (
	"testing"

	"ofar"
)

// TestOFARPolicyFlags pins which OFAR tuning the policy flags select: none
// given is the library default that sweep and sweepd run — DefaultConfig(h)
// itself — and an explicit negative -static-th is the paper's §V variable
// policy in full, not a hybrid of the two.
func TestOFARPolicyFlags(t *testing.T) {
	variable := ofar.DefaultOFARVariableConfig()
	static := ofar.DefaultOFARConfig()
	static.StaticNonMin = 0.5
	tuned := variable
	tuned.NonMinFactor, tuned.EscapeTimeout = 0.8, 64
	cases := []struct {
		name  string
		given []string
		want  ofar.OFARConfig
	}{
		{"no policy flags", nil, ofar.DefaultConfig(3).OFAR},
		{"-static-th -1", []string{"static-th"}, variable},
		{"-static-th 0.5", []string{"static-th"}, static},
		{"variable, factor and timeout", []string{"static-th", "nonmin-factor", "escape-timeout"}, tuned},
	}
	for _, c := range cases {
		given := map[string]bool{}
		for _, f := range c.given {
			given[f] = true
		}
		th := -1.0
		if c.want.StaticNonMin >= 0 {
			th = c.want.StaticNonMin
		}
		if got := ofarPolicy(given, c.want.NonMinFactor, th, c.want.EscapeTimeout); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	for _, h := range []int{2, 3, 6} {
		if got := ofarPolicy(nil, 0, 0, 0); got != ofar.DefaultConfig(h).OFAR {
			t.Errorf("h=%d: no policy flags resolve %+v, DefaultConfig(h) has %+v", h, got, ofar.DefaultConfig(h).OFAR)
		}
	}
}

// TestNetworkLine pins the report header to the effective configuration: the
// routing conventions and a -config file must show, flag defaults must not.
func TestNetworkLine(t *testing.T) {
	emb := ofar.DefaultConfig(2)
	emb.Ring, emb.NumRings = ofar.RingEmbedded, 2
	// What -dump-config writes and -config reads back: an h=2 network whose
	// h, ring mode and ring count all differ from ofarsim's flag defaults.
	data, err := ofar.ConfigToJSON(emb)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := ofar.ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	small := ofar.DefaultConfig(3)
	small.Groups = 4
	cases := []struct {
		name string
		cfg  ofar.Config
		want string
	}{
		{"MIN drops the ring", ofar.DefaultConfig(2).WithRouting(ofar.MIN),
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), escape ring: none"},
		{"PAR drops the ring", ofar.DefaultConfig(2).WithRouting(ofar.PAR),
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), escape ring: none"},
		{"OFAR default", ofar.DefaultConfig(3),
			"network       : h=3 (p=3 a=6 groups=19, 342 nodes), physical escape ring x1"},
		{"OFAR embedded x2", emb.WithRouting(ofar.OFAR),
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), embedded escape ring x2"},
		{"-config file", fromFile,
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), embedded escape ring x2"},
		{"explicit group count", small,
			"network       : h=3 (p=3 a=6 groups=4, 72 nodes), physical escape ring x1"},
	}
	for _, c := range cases {
		if got := networkLine(c.cfg); got != c.want {
			t.Errorf("%s:\n got  %q\n want %q", c.name, got, c.want)
		}
	}
}
