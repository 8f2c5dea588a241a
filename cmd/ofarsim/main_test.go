package main

import (
	"testing"

	"ofar"
)

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
