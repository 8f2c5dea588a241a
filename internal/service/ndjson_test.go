package service

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"ofar"
)

// encoderLine is what json.Encoder writes for v: the reference the appenders
// must match byte for byte.
func encoderLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPointLineMatchesEncoder holds appendPointLine and appendSummaryLine to
// json.Encoder's output across the float format's 'e' cutoffs, error strings
// that need escaping, an absent result and a result read back from a disk
// entry that was not written compact.
func TestPointLineMatchesEncoder(t *testing.T) {
	marshaled, err := json.Marshal(ofar.SteadyResult{Routing: ofar.OFAR, Pattern: "<ADV&+1>", Load: 0.3, Throughput: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	// An envelope written indented, with a string that needs HTML escaping:
	// loadDisk must hand out encoder-form bytes.
	dir := t.TempDir()
	disk, err := newResultCache(4, dir, 0x5)
	if err != nil {
		t.Fatal(err)
	}
	indented := []byte("{\n  \"key\": \"0000000000000009\",\n  \"digest\": \"0000000000000005\",\n" +
		"  \"result\": {\n    \"Pattern\": \"<b>&\",\n    \"Load\": [ 0.5, 1e-7 ]\n  }\n}\n")
	if err := os.WriteFile(disk.path(9), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	fromDisk, ok := disk.Get(9)
	if !ok {
		t.Fatal("indented disk entry not served")
	}

	base := PointResponse{Type: "point", Index: 3, Load: 0.5, Key: "0123456789abcdef", Source: "cache", ElapsedUS: 17, Result: marshaled}
	var cases []PointResponse
	for _, load := range []float64{1e-7, 1e-6, 0.05, 0.5, 2, 1e21, 123456789.125, 0} {
		p := base
		p.Load = load
		cases = append(cases, p)
	}
	for _, msg := range []string{`<>&"\`, "héllo ☃ — ünïcode", "ctl \x00\x01\t\n\r\x1f end", "bad utf8 \xff\xfe", "line sep \u2028 \u2029"} {
		p := base
		p.Source, p.Result, p.Error = "computed", nil, msg
		cases = append(cases, p)
	}
	for _, r := range [][]byte{nil, {}, fromDisk} {
		p := base
		p.Result = r
		cases = append(cases, p)
	}
	for i, p := range cases {
		if got, want := appendPointLine(nil, &p), encoderLine(t, p); !bytes.Equal(got, want) {
			t.Errorf("case %d: appendPointLine\n got  %q\n want %q", i, got, want)
		}
	}

	sum := SummaryResponse{Type: "summary", Points: 64, CacheHits: 60, Computed: 3, Coalesced: 1, Errors: 2, ElapsedUS: 1234567, Engine: "157c630a8efe4df6"}
	if got, want := appendSummaryLine([]byte("prefix"), &sum), append([]byte("prefix"), encoderLine(t, sum)...); !bytes.Equal(got, want) {
		t.Errorf("appendSummaryLine\n got  %q\n want %q", got, want)
	}
}

// TestMarshalResultNullsNonFinite: marshalResult writes what json.Marshal
// writes for a finite result, and for one holding NaN or ±Inf — in the
// aggregate and in a job row, of a result passed by pointer — the same
// bytes with null where each non-finite value stands.
func TestMarshalResultNullsNonFinite(t *testing.T) {
	const mark = 12345.5 // a value no field holds, put where the non-finite ones go
	build := func(bad float64) *ofar.JobsResult {
		return &ofar.JobsResult{
			Workload: "w", Scale: 0.5,
			Agg:  ofar.SteadyResult{Routing: ofar.OFAR, Load: 0.5, AvgLatency: bad, P99Latency: bad, Throughput: 0.25},
			Jobs: []ofar.JobResult{{Job: "a", AvgLatency: 3}, {Job: "b", P50Latency: bad}},
		}
	}
	for _, v := range []any{build(mark), ofar.TransientResult{Points: []ofar.TransientPoint{{MeanLatency: 2}}}} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := marshalResult(v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("finite %T: %s (%v), json.Marshal %s", v, got, err, want)
		}
	}
	marked, err := json.Marshal(build(mark))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.ReplaceAll(marked, []byte("12345.5"), []byte("null"))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := marshalResult(build(bad)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("with %v: %s (%v), want %s", bad, got, err, want)
		}
	}
}
