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

// goldenScale runs every figure in about a second.
var goldenScale = []string{"-h", "2", "-warmup", "200", "-measure", "300", "-points", "2", "-burst", "20"}

// experiments runs the command at the golden scale plus args and returns its
// stdout.
func experiments(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(append(slices.Clone(goldenScale), args...), &out, &errOut); err != nil {
		t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String()
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

// TestFiguresGolden: every figure of the table, and -fig all, print what
// testdata pins.
func TestFiguresGolden(t *testing.T) {
	var all strings.Builder
	for _, f := range ofar.PaperFigures(2, 200) {
		t.Run(f.ID, func(t *testing.T) {
			out := experiments(t, "-fig", f.ID)
			golden(t, f.ID, out)
			if !f.Extension {
				all.WriteString(out)
			}
		})
	}
	if got := experiments(t, "-fig", "all"); got != all.String() {
		t.Errorf("-fig all is not the paper's figures in table order:\n%s", got)
	}
	if err := run([]string{"-fig", "fig10"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestSVGGolden: -svg writes one chart per Fig. 8 panel, named and drawn as
// testdata pins; stdout notes each file it wrote.
func TestSVGGolden(t *testing.T) {
	dir := t.TempDir()
	golden(t, "fig8_svg", strings.ReplaceAll(experiments(t, "-fig", "fig8", "-svg", dir), dir, "SVGDIR"))
	for _, name := range []string{"fig8_un.svg", "fig8_adv2.svg"} {
		svg, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden(t, name, string(svg))
	}
}

// TestWorkersMatchSerial: a pool stealing whole groups changes no byte.
func TestWorkersMatchSerial(t *testing.T) {
	if serial, pool := experiments(t, "-fig", "fig5"), experiments(t, "-fig", "fig5", "-workers", "4"); pool != serial {
		t.Errorf("-workers 4 output differs from serial:\n%s\nvs\n%s", pool, serial)
	}
}

// TestZeroWarmup: -warmup 0 means no warm-up cycles, not the default window
// Experiment.Resolve gives an absent one.
func TestZeroWarmup(t *testing.T) {
	golden(t, "fig3_warmup0", experiments(t, "-fig", "fig3", "-warmup", "0"))
}

// TestHelp pins -help: every flag's name, type, default and usage.
func TestHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-help"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help: %v", err)
	}
	golden(t, "help", errOut.String())
}

// TestRejects: fewer than one load point and a window no run can have are
// errors before anything is simulated or printed.
func TestRejects(t *testing.T) {
	for _, args := range []string{"-points -1", "-points 0", "-warmup -1", "-measure 0"} {
		var out bytes.Buffer
		if err := run(append(slices.Clone(goldenScale), strings.Fields("-fig fig5 "+args)...), &out, io.Discard); err == nil || out.Len() != 0 {
			t.Errorf("experiments %s: error %v, printed %q", args, err, out.String())
		}
	}
}
