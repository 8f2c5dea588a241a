package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ofar"
)

// expectedJSON pins, for seed 1, every workload's simulated facts together
// with the EngineDigest they were taken under. A change meant only to speed
// the simulator up must leave them identical; a deliberate physics change
// moves the digest, and the check then reports that instead of failing.
//
//go:embed expected.json
var expectedJSON []byte

const expectedSeed = 1

type expectedFile struct {
	Engine    string                       `json:"engine_digest"`
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// checkExpected holds a full-size seed-1 run's facts against the fixture.
func checkExpected(name string, ctx *runCtx, o *outcome) {
	if ctx.seed != expectedSeed || ctx.quick {
		o.note("fixture: not checked (pinned for seed %d at full size)", expectedSeed)
		return
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		o.check("fixture", false, "bench/expected.json: %v", err)
		return
	}
	want, ok := exp.Workloads[name]
	if !ok {
		o.note("fixture: no entry for %s; pin one with -update-expected", name)
		return
	}
	if engine := fmt.Sprintf("%016x", ofar.EngineDigest()); engine != exp.Engine {
		o.note("fixture: PHYSICS CHANGED: EngineDigest %s, pinned under %s; facts not compared, re-pin with -update-expected", engine, exp.Engine)
		return
	}
	d := diffFacts(o.facts, want)
	o.check("fixture", d == "", "simulated facts moved under an unchanged EngineDigest: %s", d)
}

// updateExpected re-pins bench/expected.json from one short seed-1 timed run
// of every workload (the facts come from fixed windows, so they do not depend
// on how long a run measures). Run it from the repository root.
func updateExpected(outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("expected-%d.ndjson", os.Getpid()))
	defer os.Remove(tmp)
	for _, w := range workloads {
		// A stale fixture fails the child; its record is judged below.
		_ = spawn(os.Stderr, w.Name, expectedSeed, 1, 0, false, tmp, outDir)
	}
	recs, err := readRecords(tmp)
	if err != nil {
		fatal("%v", err)
	}
	exp := expectedFile{Seed: expectedSeed, Workloads: map[string]map[string]string{}}
	for _, r := range recs {
		for _, c := range r.Checks {
			if !c.OK && c.Name != "fixture" {
				fatal("%s: check %q failed, not pinning: %s", r.Workload, c.Name, c.Detail)
			}
		}
		exp.Engine = r.Engine
		exp.Workloads[r.Workload] = r.Facts
	}
	if len(exp.Workloads) != len(workloads) {
		fatal("only %d of %d workloads produced a record", len(exp.Workloads), len(workloads))
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join("bench", "expected.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("pinned %d workloads under engine %s in %s\n", len(exp.Workloads), exp.Engine, path)
	return 0
}
