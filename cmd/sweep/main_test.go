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
)

var update = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this build")

// h2 runs every case at h=2 in milliseconds: three points per sweep.
var h2 = []string{"-h", "2", "-warmup", "300", "-measure", "500", "-from", "0.1", "-to", "0.5", "-points", "3"}

// sweep runs the command at h2 plus args and returns stdout and stderr.
func sweep(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(append(slices.Clone(h2), args...), &out, &errOut); err != nil {
		t.Fatalf("sweep %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
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

// TestGolden: each kind of sweep — pattern, job set, replicated seeds, no
// warm-up — prints the CSV testdata pins.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"pattern", []string{"-pattern", "ADV+1"}},
		{"jobs", []string{"-jobs", "a2a:12@0.5,ring:12@0.2", "-bg", "0.05"}},
		{"seeds2", []string{"-seeds", "2"}},
		{"warmup0", []string{"-pattern", "ADV+1", "-warmup", "0"}}, // 0 means no warm-up, not the default
	} {
		t.Run(c.name, func(t *testing.T) {
			out, _ := sweep(t, c.args...)
			golden(t, c.name, out)
		})
	}
}

// TestWarmCache: two sweeps against one -checkpoint/-restore directory print
// the same CSV, the second restoring every point — job sets as well as
// patterns.
func TestWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := []string{"-checkpoint", dir, "-restore", dir}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"pattern", []string{"-pattern", "ADV+1"}},
		{"jobs", []string{"-jobs", "a2a:12@0.5,ring:12@0.2", "-bg", "0.05"}},
	} {
		for _, note := range []string{
			"0 point(s) restored (0 warmup cycles skipped), 3 warmed (900 cycles)",
			"3 point(s) restored (900 warmup cycles skipped), 0 warmed (0 cycles)",
		} {
			out, log := sweep(t, append(c.args, cache...)...)
			golden(t, c.golden, out)
			if !strings.Contains(log, note) {
				t.Errorf("%s: stderr %q, want %q", c.golden, log, note)
			}
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

// TestRejects: fewer than one load point, a window no run can have and a
// negative or NaN load are errors before anything is simulated or printed.
func TestRejects(t *testing.T) {
	for _, args := range []string{
		"-points -1", "-points 0", "-warmup -1", "-measure 0", "-from -0.5", "-to NaN",
	} {
		var out bytes.Buffer
		if err := run(append(slices.Clone(h2), strings.Fields(args)...), &out, io.Discard); err == nil || out.Len() != 0 {
			t.Errorf("sweep %s: error %v, printed %q", args, err, out.String())
		}
	}
}
