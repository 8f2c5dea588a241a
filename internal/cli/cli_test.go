package cli

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ofar"
)

func parse(args ...string) (*Point, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p := BindPoint(fs)
	return p, p.Parse(args)
}

// TestParse: -faults is a JSON fault file or, when no such file exists, an
// inline schedule — a file that is not JSON is an error, never read as a
// schedule — and windows no run can have are refused.
func TestParse(t *testing.T) {
	dir := t.TempDir()
	file := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	two := []ofar.Fault{
		{Cycle: 5000, Kind: ofar.FaultLink, Router: 12, Port: 7},
		{Cycle: 20000, Kind: ofar.FaultRouter, Router: 3},
	}
	for _, c := range []struct {
		name   string
		args   []string
		faults []ofar.Fault
		err    string
	}{
		{"no faults", nil, nil, ""},
		{"JSON fault file", []string{"-faults", file("faults.json",
			`[{"cycle":5000,"kind":"link","router":12,"port":7},{"cycle":20000,"kind":"router","router":3}]`)}, two, ""},
		{"inline schedule", []string{"-faults", "link@5000:12:7,router@20000:3"}, two, ""},
		{"malformed fault file", []string{"-faults", file("bad.json", "link@5000:12:7")}, nil, "parsing fault file"},
		{"bad inline schedule", []string{"-faults", "link@x"}, nil, "link@x"},
		{"warm-up 0", []string{"-warmup", "0"}, nil, ""},
		{"negative warm-up", []string{"-warmup", "-1"}, nil, "-warmup -1"},
		{"measure 0", []string{"-measure", "0"}, nil, "-measure 0"},
		{"negative measure", []string{"-measure", "-1"}, nil, "-measure -1"},
	} {
		p, err := parse(c.args...)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.err)
		case c.err == "" && !reflect.DeepEqual(p.Faults, c.faults):
			t.Errorf("%s: faults %+v, want %+v", c.name, p.Faults, c.faults)
		}
	}
}

// TestResolve: the flags' windows survive the resolver (-warmup 0 is 0
// cycles, not its default), -jobs replaces -pattern's default, and a
// negative or NaN load is refused.
func TestResolve(t *testing.T) {
	p, err := parse("-h", "2", "-warmup", "0", "-measure", "7", "-jobs", "a2a:12@0.5")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resolve(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Warmup != 0 || r.Measure != 7 || r.Jobs == nil || r.Config.H != 2 {
		t.Errorf("resolved warmup %d, measure %d, jobs %v at h=%d; want 0, 7, a job set at h=2", r.Warmup, r.Measure, r.Jobs, r.Config.H)
	}
	for _, load := range []float64{-0.5, math.NaN()} {
		if _, err := p.Resolve(load); err == nil {
			t.Errorf("load %v accepted", load)
		}
	}
}
