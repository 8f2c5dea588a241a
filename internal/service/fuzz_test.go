package service

import (
	"bytes"
	"math"
	"testing"

	"ofar"
)

// FuzzExperimentDecode feeds raw /sweep bodies through the handler's decode
// and the service caps. Nothing may panic; every accepted request must
// satisfy the caps and its keys must equal the per-load reference formula;
// and a point line with the fuzzed load and error text must be exactly what
// json.Encoder writes.
func FuzzExperimentDecode(f *testing.F) {
	for _, body := range []string{
		`{"h":2,"loads":[0.1]}`,
		`{"h":2,"routing":"min","pattern":"ADV+1","loads":[0.1,0.3,0.1],"warmup":300,"measure":300}`,
		`{"h":3,"routing":"OFAR","pattern":"UN","seed":7007,"loads":[0.1,0.3,0.5],"warmup":1000,"measure":2000}`,
		`{"config":{"P":2,"A":4,"H":2,"Workers":4},"routing":"PAR","loads":[0.2],"warmup":500,"measure":700}`,
		`{"h":2,"jobs":"a2a:12@0.5,ring:12@0.2","jobmap":"random","background":0.05,"loads":[0.5,1],"warmup":200,"measure":400}`,
		`{"h":2,"pattern":"MIX2","loads":[1e-7,2]}`,
		`{"h":2,"routing":"OFAR","pattern":"UN","loads":[0.14],"warmup":1000,"transient":{"after":"ADV+2","run":600,"drain":800,"bucket":100}}`,
		`{"h":2,"pattern":"ST4x3x2/rnd","burst":{"per_node":10,"max_cycles":100000}}`,
		`{"h":9,"loads":[0.1]}`,
		`{"h":2,"loads":[-0.5]}`,
		`{"h":2,"loads":[0.1],"warmup":9223372036854775807,"measure":1}`,
		`{"config":{"P":1,"A":16,"H":40,"Groups":0,"PacketSize":8,"LocalLatency":10,"GlobalLatency":100,"LocalBuf":32,"GlobalBuf":256,"InjBuf":32,"LocalVCs":3,"GlobalVCs":2,"InjVCs":3,"Ring":1,"NumRings":1,"RingVCs":3,"RingBuf":32,"AllocIters":3,"PendingCap":16,"Routing":"OFAR","OFAR":{"ThMin":1,"StaticNonMin":0.4,"NonMinFactor":0.9,"EscapeTimeout":0}},"loads":[0.1]}`,
		`{"h":`,
		``,
	} {
		f.Add([]byte(body), 0.3, "simulation panicked: <boom> & \"more\"")
	}
	f.Add([]byte(`{"h":2,"loads":[0.1]}`), 1e-7, "\x00\xff ")
	f.Fuzz(func(t *testing.T, body []byte, load float64, msg string) {
		if res, err := decodeRequest(body, 64); err == nil {
			checkCaps(t, res)
			const digest = 0x157c630a8efe4df6
			keys := pointKeys(res, digest)
			if len(keys) != len(res.Loads) {
				t.Fatalf("%d keys for %d loads", len(keys), len(res.Loads))
			}
			for i, l := range res.Loads {
				if want := pointKey(res.Canon, res.PatternName(), l, res.Warmup, res.Measure, digest); keys[i] != want {
					t.Fatalf("load %d (%v): key %016x, per-load formula %016x", i, l, keys[i], want)
				}
			}
		}
		if math.IsNaN(load) || math.IsInf(load, 0) {
			return // json.Encoder refuses these; loads are validated to (0, 2]
		}
		p := PointResponse{Type: "point", Index: len(body), Load: load, Key: "00000000000000ff", Source: "computed", ElapsedUS: int64(len(msg)), Error: msg}
		if got, want := appendPointLine(nil, &p), encoderLine(t, p); !bytes.Equal(got, want) {
			t.Fatalf("appendPointLine\n got  %q\n want %q", got, want)
		}
	})
}

// checkCaps fails unless res is within every service cap, re-derived in
// float64 so that no product or sum can wrap.
func checkCaps(t *testing.T, res ofar.Resolved) {
	t.Helper()
	c := res.Config
	f := func(v int) float64 { return float64(v) }
	groups := f(c.Groups)
	if c.Groups == 0 {
		groups = f(c.A)*f(c.H) + 1
	}
	buf := f(max(c.LocalBuf, c.GlobalBuf, c.InjBuf, c.RingBuf))
	slots := groups * f(c.A) * (f(c.P) + f(c.A) - 1 + f(c.H) + f(c.NumRings)) *
		(f(max(c.LocalVCs, c.GlobalVCs, c.InjVCs, c.RingVCs)) + f(c.NumRings)) * (math.Floor(buf/f(c.PacketSize)) + 1)
	switch {
	case res.Warmup < 0 || res.Measure < 1 || f(res.Warmup)+f(res.Measure) > maxCycles:
		t.Fatalf("accepted warmup %d + measure %d", res.Warmup, res.Measure)
	case groups*f(c.A) > maxRouters:
		t.Fatalf("accepted %v routers", groups*f(c.A))
	case buf > maxBufPhits:
		t.Fatalf("accepted a %v-phit FIFO", buf)
	case max(c.LocalLatency, c.GlobalLatency) > maxLatency:
		t.Fatalf("accepted link latencies %d/%d", c.LocalLatency, c.GlobalLatency)
	case slots > maxQueueSlots:
		t.Fatalf("accepted %v queue slots", slots)
	case res.Transient != nil && (f(res.Warmup)+f(res.Transient.Run)+f(res.Transient.Drain) > maxCycles ||
		(f(res.Warmup)+f(res.Transient.Run)+f(res.Transient.Drain))/f(res.Transient.Bucket) >= maxBuckets):
		t.Fatalf("accepted transient %+v after %d warm-up cycles", *res.Transient, res.Warmup)
	case res.Burst != nil && (res.Burst.MaxCycles > maxCycles || len(res.Loads) != 1):
		t.Fatalf("accepted burst %+v with loads %v", *res.Burst, res.Loads)
	}
}
