package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ofar"
)

var update = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this build")

// Every case runs at h=2 in milliseconds: a saturating ADV+1 point and a
// two-job set with background traffic.
var (
	h2     = []string{"-h", "2", "-warmup", "300", "-measure", "500"}
	adv1   = "-pattern ADV+1 -load 0.4"
	jobSet = "-jobs a2a:12@0.5,ring:12@0.2 -bg 0.05 -load 0.8"
)

// ofarsim runs the command at h2 plus args, with DIR in args standing for
// dir, and returns stdout (dir written back as DIR) and stderr.
func ofarsim(t *testing.T, dir, args string) (string, string) {
	t.Helper()
	argv := append(slices.Clone(h2), strings.Fields(strings.ReplaceAll(args, "DIR", dir))...)
	var out, errOut bytes.Buffer
	if err := run(argv, &out, &errOut); err != nil {
		t.Fatalf("ofarsim %s: %v\n%s", args, err, errOut.String())
	}
	return strings.ReplaceAll(out.String(), dir, "DIR"), errOut.String()
}

// golden compares got with testdata/name.golden, or rewrites the file under
// -update-golden.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", path, got)
	}
}

// TestGolden: every shape of the report prints what testdata pins. Pattern
// and job-set points, recordings and replays share one point call, so these
// files are what shows a change to it moved no output.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, args string }{
		{"report", adv1},
		{"q", adv1 + " -q"},
		{"jobs", jobSet},
		{"jobs_q", jobSet + " -q"},
		{"trace_out", adv1 + " -trace-out DIR/run.trace"},
		{"trace_in", "-trace-in DIR/run.trace"}, // replays trace_out's recording
		{"jobs_trace_out", jobSet + " -trace-out DIR/jobs.trace"},
		{"dump_config", "-routing PAR -dump-config"},
		{"warmup0", adv1 + " -warmup 0"}, // 0 means no warm-up, not the default
	} {
		t.Run(c.name, func(t *testing.T) {
			out, _ := ofarsim(t, dir, c.args)
			golden(t, c.name, out)
		})
	}
}

// TestWarmCache: -checkpoint and -restore take one warm-cache directory.
// Run twice against it, a point — pattern or job set — prints its golden
// both times and the second run restores instead of warming. The warm-up
// length is part of the entry's name, so -warmup 0 misses; a recording warms
// from cycle 0 even with the entry there, and its trace still replays to its
// digest.
func TestWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := " -checkpoint DIR/warm -restore DIR/warm"
	for _, c := range []struct{ golden, args, note string }{
		{"report", adv1 + cache, "0 point(s) restored"},
		{"report", adv1 + cache, "1 point(s) restored (300 warmup cycles skipped), 0 warmed"},
		{"warmup0", adv1 + cache + " -warmup 0", "0 point(s) restored"},
		{"jobs", jobSet + cache, "0 point(s) restored"},
		{"jobs", jobSet + cache, "1 point(s) restored"},
		{"trace_out", adv1 + cache + " -trace-out DIR/run.trace", "0 point(s) restored"},
		{"trace_in", "-trace-in DIR/run.trace", ""},
	} {
		out, note := ofarsim(t, dir, c.args)
		golden(t, c.golden, out)
		if !strings.Contains(note, c.note) {
			t.Errorf("ofarsim %s: stderr %q, want %q", c.args, note, c.note)
		}
	}
}

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

// TestBadOFARPolicy: an OFAR policy with no usable non-minimal threshold, from
// a -config file or from the policy flags, is a configuration error that run
// returns (main prints it and exits 1) before anything is simulated — not a
// panic.
func TestBadOFARPolicy(t *testing.T) {
	bad := ofar.DefaultConfig(2)
	bad.OFAR.NonMinFactor, bad.OFAR.StaticNonMin = 0, -1
	data, err := ofar.ConfigToJSON(bad)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-config", path},
		{"-h", "2", "-nonmin-factor", "0", "-static-th", "-1"},
	} {
		var out, errOut bytes.Buffer
		err := run(append(args, "-warmup", "100", "-measure", "100"), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "no usable non-minimal threshold") {
			t.Errorf("ofarsim %v: error %v, want the policy rejected", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("ofarsim %v printed a report:\n%s", args, out.String())
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
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ofar.LoadConfig(path)
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

// TestHelp pins -help: every flag's name, type, default and usage.
func TestHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-help"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help: %v", err)
	}
	golden(t, "help", errOut.String())
}

// TestForeignPacketSize: -trace-in of a trace whose packets are not the
// network's 8 phits fails, naming the record, and prints no report.
func TestForeignPacketSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.trace")
	if err := ofar.SaveTrace(path, []ofar.TraceRecord{{Cycle: 5, Src: 0, Dst: 9, Size: 16}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(append(slices.Clone(h2), "-trace-in", path), &out, io.Discard)
	if want := "trace: record 0 is a 16-phit packet, this network's packets are 8 phits"; err == nil || !strings.Contains(err.Error(), want) || out.Len() != 0 {
		t.Errorf("error %v, printed %q; want an error containing %q", err, out.String(), want)
	}
}

// TestRejects: a window no run can have and a negative or NaN load are
// errors before anything is simulated or printed.
func TestRejects(t *testing.T) {
	for _, args := range []string{
		"-warmup -1", "-measure 0", "-measure -1", "-load -0.5", "-load NaN",
	} {
		var out bytes.Buffer
		if err := run(append(slices.Clone(h2), strings.Fields(args)...), &out, io.Discard); err == nil || out.Len() != 0 {
			t.Errorf("ofarsim %s: error %v, printed %q", args, err, out.String())
		}
	}
}
