package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofar"
	"ofar/internal/network"
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/traffic"
)

// testConfig is the tiny h=2 system (36 routers, 72 nodes) every service
// test simulates: big enough to exercise the real engine, small enough that
// a cold point takes milliseconds.
func testConfig() ofar.Config {
	cfg := ofar.DefaultConfig(2)
	cfg.Seed = 7
	return cfg
}

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close() // waits for in-flight requests
		srv.Close()
	})
	return srv, ts
}

// sweepResponse is one parsed NDJSON sweep reply.
type sweepResponse struct {
	status  int
	points  []PointResponse
	summary SummaryResponse
	raw     string
}

func postSweep(t *testing.T, url string, req Request) sweepResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, body)
}

// postBody posts raw bytes to /sweep and parses the reply.
func postBody(t *testing.T, url string, body []byte) sweepResponse {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := sweepResponse{status: resp.StatusCode}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out.raw = string(raw)
	if resp.StatusCode != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "point":
			var p PointResponse
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			out.points = append(out.points, p)
		case "summary":
			if err := json.Unmarshal(sc.Bytes(), &out.summary); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown line type %q", probe.Type)
		}
	}
	return out
}

func countingRunner(calls *atomic.Int64) PointRunner {
	return func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		calls.Add(1)
		return r.Run(load, opt)
	}
}

// TestServerSmoke is the end-to-end acceptance run: a cold sweep simulates
// every point and matches RunLoadSweepOpt byte for byte; the identical
// second request is served entirely from cache — zero additional
// simulations, ≥100× faster per point than the cold run.
func TestServerSmoke(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Sims: 2, MaxQueue: 16, Runner: countingRunner(&calls)})

	cfg := testConfig()
	loads := []float64{0.05, 0.2}
	const warmup, measure = 2000, 1000
	req := Request{Config: &cfg, Loads: loads, Warmup: warmup, Measure: measure}

	cold := postSweep(t, ts.URL, req)
	if cold.status != http.StatusOK {
		t.Fatalf("cold request: HTTP %d: %s", cold.status, cold.raw)
	}
	if len(cold.points) != len(loads) {
		t.Fatalf("cold: %d points, want %d", len(cold.points), len(loads))
	}
	if got := calls.Load(); got != int64(len(loads)) {
		t.Fatalf("cold run simulated %d points, want %d", got, len(loads))
	}
	for _, p := range cold.points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", p.Index, p.Error)
		}
		if p.Source != "computed" {
			t.Errorf("cold point %d source = %q, want computed", p.Index, p.Source)
		}
	}

	// (c) Responses must be byte-identical to RunLoadSweepOpt run directly.
	direct, _, err := ofar.RunLoadSweepOpt(cfg, ofar.Uniform(), loads, warmup, measure, ofar.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cold.points {
		want, err := json.Marshal(direct[p.Index])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Result, want) {
			t.Errorf("point %d differs from direct RunLoadSweepOpt:\n service: %s\n direct:  %s", p.Index, p.Result, want)
		}
	}

	// (a) The repeated identical request hits the cache on every point, runs
	// no simulation, and each point is served ≥100× faster.
	warm := postSweep(t, ts.URL, req)
	if warm.status != http.StatusOK {
		t.Fatalf("warm request: HTTP %d", warm.status)
	}
	if got := calls.Load(); got != int64(len(loads)) {
		t.Fatalf("warm run re-simulated: %d total calls, want still %d", got, len(loads))
	}
	if warm.summary.CacheHits != len(loads) {
		t.Fatalf("warm summary: %d cache hits, want %d (summary %+v)", warm.summary.CacheHits, len(loads), warm.summary)
	}
	for _, p := range warm.points {
		if p.Source != "cache" {
			t.Errorf("warm point %d source = %q, want cache", p.Index, p.Source)
		}
		cold := cold.points[indexOf(t, cold.points, p.Index)]
		if !bytes.Equal(p.Result, cold.Result) {
			t.Errorf("warm point %d bytes differ from cold", p.Index)
		}
		coldUS := cold.ElapsedUS
		warmUS := p.ElapsedUS
		if warmUS < 1 {
			warmUS = 1 // sub-microsecond hit
		}
		if coldUS/warmUS < 100 {
			t.Errorf("point %d: cache hit only %dx faster (cold %dµs, hit %dµs), want ≥100x",
				p.Index, coldUS/warmUS, coldUS, p.ElapsedUS)
		}
	}
}

func indexOf(t *testing.T, points []PointResponse, index int) int {
	t.Helper()
	for i, p := range points {
		if p.Index == index {
			return i
		}
	}
	t.Fatalf("point index %d missing", index)
	return -1
}

// TestConcurrentIdenticalRequestsCoalesce: (b) N=8 concurrent identical cold
// requests trigger exactly one simulation; everyone gets the same bytes.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Sims: 4, MaxQueue: 32, Runner: countingRunner(&calls)})

	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.3}, Warmup: 1500, Measure: 800}

	const n = 8
	var wg sync.WaitGroup
	responses := make([]sweepResponse, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i] = postSweep(t, ts.URL, req)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", n, got)
	}
	var first []byte
	for i, r := range responses {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, r.status, r.raw)
		}
		if len(r.points) != 1 || r.points[0].Error != "" {
			t.Fatalf("request %d: bad points %+v", i, r.points)
		}
		if first == nil {
			first = r.points[0].Result
		} else if !bytes.Equal(first, r.points[0].Result) {
			t.Errorf("request %d got different bytes than request 0", i)
		}
		switch r.points[0].Source {
		case "computed", "coalesced", "cache": // one leader; late arrivals may hit the cache
		default:
			t.Errorf("request %d: unexpected source %q", i, r.points[0].Source)
		}
	}
}

// TestOverloadSheds429: (d) once the admission queue is full, requests are
// refused with 429 + Retry-After instead of queueing without bound.
func TestOverloadSheds429(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	blockingRunner := func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		started <- struct{}{}
		<-block
		return ofar.PointResult{SteadyResult: ofar.SteadyResult{Routing: r.Config.Routing, Pattern: r.PatternName(), Load: load}}, nil
	}
	srv, ts := startServer(t, Options{Sims: 1, MaxQueue: 1, CacheEntries: 8, Runner: blockingRunner})

	cfg := testConfig()
	mkReq := func(load float64) Request {
		return Request{Config: &cfg, Loads: []float64{load}, Warmup: 100, Measure: 100}
	}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); codes[0] = postSweep(t, ts.URL, mkReq(0.1)).status }()
	<-started // the only worker is now occupied

	wg.Add(1)
	go func() { defer wg.Done(); codes[1] = postSweep(t, ts.URL, mkReq(0.2)).status }()
	// Wait until the second request's point is admitted (queued).
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full (MaxQueue=1) + worker busy: the third distinct request must
	// be shed, not queued.
	body, _ := json.Marshal(mkReq(0.3))
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: HTTP %d (%s), want 429", resp.StatusCode, msg)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a usable Retry-After header (%q)", ra)
	}

	close(block) // let the admitted requests finish
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: HTTP %d, want 200", i, c)
		}
	}
}

// TestDiskPersistenceAcrossRestart: results persisted by one server instance
// are served from the result cache by a fresh instance (same physics) with
// no simulation — and the warm-snapshot cache is shared the same way.
func TestDiskPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.15}, Warmup: 600, Measure: 400}

	var calls1 atomic.Int64
	srv1, err := New(Options{DiskDir: dir, Runner: countingRunner(&calls1)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	first := postSweep(t, ts1.URL, req)
	ts1.Close()
	srv1.Close()
	if first.status != http.StatusOK || calls1.Load() != 1 {
		t.Fatalf("first instance: HTTP %d, %d sims", first.status, calls1.Load())
	}

	var calls2 atomic.Int64
	_, ts2 := startServer(t, Options{DiskDir: dir, Runner: countingRunner(&calls2)})
	second := postSweep(t, ts2.URL, req)
	if second.status != http.StatusOK {
		t.Fatalf("second instance: HTTP %d", second.status)
	}
	if got := calls2.Load(); got != 0 {
		t.Fatalf("restarted server re-simulated %d points; the persisted result should have served", got)
	}
	if second.points[0].Source != "cache" {
		t.Errorf("source = %q, want cache", second.points[0].Source)
	}
	if !bytes.Equal(first.points[0].Result, second.points[0].Result) {
		t.Error("persisted result differs across instances")
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Runner: countingRunner(&calls)})
	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 300, Measure: 200}
	postSweep(t, ts.URL, req)
	postSweep(t, ts.URL, req)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(health), "ok engine=") {
		t.Fatalf("healthz: HTTP %d %q", resp.StatusCode, health)
	}
	if !strings.Contains(string(health), fmt.Sprintf("%016x", ofar.EngineDigest())) {
		t.Error("healthz does not report the engine digest")
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metricsBody)
	for _, want := range []string{
		"sweepd_cache_hits_total 1",
		"sweepd_cache_misses_total 1",
		"sweepd_requests_total 2",
		"sweepd_queue_depth 0",
		"sweepd_inflight_sims 0",
		"sweepd_point_latency_seconds{quantile=\"0.99\"}",
		"sweepd_cache_hit_rate 0.5",
		"sweepd_step_phase_seconds_total{phase=\"generate\"}",
		"sweepd_step_phase_seconds_total{phase=\"routers\"}",
		"sweepd_step_phase_cycles_total",
		"sweepd_disk_write_errors_total 0",
		"sweepd_request_memo_hits_total 1", // the second post's body was resolved once, by the first
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := startServer(t, Options{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// config is the body of a one-load request on the h=2 default with edit
	// applied: each edit alone passes Validate.
	config := func(edit func(c *ofar.Config)) string {
		cfg := ofar.DefaultConfig(2)
		edit(&cfg)
		body, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1}})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cases := map[string]string{
		"no loads":           `{"h":2}`,
		"bad pattern":        `{"h":2,"loads":[0.1],"pattern":"NOPE"}`,
		"bad load":           `{"h":2,"loads":[-0.5]}`,
		"bad json":           `{"h":`,
		"bad routing":        `{"h":2,"loads":[0.1],"routing":"WAT"}`,
		"huge window":        `{"h":2,"loads":[0.1],"warmup":9000000,"measure":9000000}`,
		"window overflows":   `{"h":2,"loads":[0.1],"warmup":9223372036854775807,"measure":1}`,
		"workers too big":    `{"config":{"P":2,"A":4,"H":2,"Workers":999},"loads":[0.1]}`,
		"huge global FIFO":   config(func(c *ofar.Config) { c.GlobalBuf = 1 << 40 }),
		"30-phit local FIFO": config(func(c *ofar.Config) { c.LocalBuf = 30 }), // not a whole number of 8-phit packets
		"huge local latency": config(func(c *ofar.Config) { c.LocalLatency = 1 << 40 }),
		"too many routers":   config(func(c *ofar.Config) { c.P, c.A, c.H = 1, 16, 40 }),
		"ring count wraps":   config(func(c *ofar.Config) { c.NumRings = math.MaxInt }),
		"too many slots": config(func(c *ofar.Config) {
			*c = ofar.DefaultConfig(8)
			c.PacketSize, c.LocalBuf, c.GlobalBuf, c.InjBuf = 1, 4096, 4096, 4096
		}),
		"transient and burst": `{"h":2,"loads":[0.1],"transient":{"after":"UN","bucket":100},"burst":{"per_node":1,"max_cycles":10}}`,
		"jobs and transient":  `{"h":2,"jobs":"a2a:8@0.5","loads":[0.5],"transient":{"after":"UN","bucket":100}}`,
		"bad after":           `{"h":2,"loads":[0.1],"transient":{"after":"NOPE","bucket":100}}`,
		"zero bucket":         `{"h":2,"loads":[0.1],"transient":{"after":"UN"}}`,
		"huge transient":      `{"h":2,"loads":[0.1],"transient":{"after":"UN","run":9000000,"drain":9000000,"bucket":100}}`,
		"transient overflows": `{"h":2,"loads":[0.1],"transient":{"after":"UN","run":1,"drain":9223372036854775807,"bucket":100}}`,
		"too many buckets":    `{"h":2,"loads":[0.1],"transient":{"after":"UN","run":1000000,"bucket":1}}`,
		"huge burst":          `{"h":2,"burst":{"per_node":1,"max_cycles":20000000}}`,
		"burst with loads":    `{"h":2,"loads":[0.1],"burst":{"per_node":1,"max_cycles":1000}}`,
		"stencil too big":     `{"h":2,"loads":[0.1],"pattern":"ST9x9x9/lin"}`,
	}
	for name, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestBodyCap: a body one byte over the 1 MiB cap is refused with 400 and
// the decoder's "parsing request" text, and the memo keeps nothing of it. A
// request padded with trailing whitespace to exactly the cap is served (the
// body's first JSON value is the request), and the memo does not store a body
// that long.
func TestBodyCap(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startServer(t, Options{Runner: countingRunner(&calls)})
	cfg := testConfig()
	req, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 300, Measure: 200})
	if err != nil {
		t.Fatal(err)
	}
	const tooLarge = `{"error":"parsing request: http: request body too large"}`
	pre := `{"h":2,"loads":[0.1],"pattern":"`
	for name, body := range map[string][]byte{
		"one long value":         []byte(pre + strings.Repeat("x", maxBodyBytes+1-len(pre)-2) + `"}`),
		"trailing bytes past it": append(bytes.Clone(req), bytes.Repeat([]byte(" "), maxBodyBytes+1-len(req))...),
	} {
		if len(body) != maxBodyBytes+1 {
			t.Fatalf("%s: %d bytes, want %d", name, len(body), maxBodyBytes+1)
		}
		r := postBody(t, ts.URL, body)
		if r.status != http.StatusBadRequest || strings.TrimSpace(r.raw) != tooLarge {
			t.Errorf("%s: HTTP %d %q, want 400 %s", name, r.status, r.raw, tooLarge)
		}
	}
	if n := srv.memo.len(); n != 0 || calls.Load() != 0 {
		t.Fatalf("after refused bodies: %d memo entries, %d simulations; want none", n, calls.Load())
	}
	atCap := append(bytes.Clone(req), bytes.Repeat([]byte(" \n\t"), maxBodyBytes)...)[:maxBodyBytes]
	if r := postBody(t, ts.URL, atCap); r.status != http.StatusOK || len(r.points) != 1 || r.points[0].Error != "" {
		t.Fatalf("a request padded to the cap: HTTP %d %s", r.status, r.raw)
	}
	if n := srv.memo.len(); n != 0 {
		t.Errorf("a %d-byte body was memoized (%d entries); the memo holds bodies of at most %d bytes", maxBodyBytes, n, memoMaxBody)
	}
	if r := postBody(t, ts.URL, append(req, " \r\n"...)); r.status != http.StatusOK || len(r.points) != 1 || r.points[0].Source != "cache" {
		t.Fatalf("a request with trailing whitespace: HTTP %d %s", r.status, r.raw)
	}
}

// TestSizeCapsAdmitShippedConfigs: the size caps reject no shipped
// configuration — every h shorthand under every routing, nor the h=8 default
// with two embedded rings, the largest queue-slot count among them.
func TestSizeCapsAdmitShippedConfigs(t *testing.T) {
	for h := 1; h <= 8; h++ {
		for _, rt := range []string{"MIN", "VAL", "PB", "UGAL-L", "PAR", "OFAR", "OFAR-L"} {
			if _, err := resolveBounded(Request{H: h, Routing: rt, Loads: []float64{0.1}}, 1); err != nil {
				t.Errorf("h=%d %s: %v", h, rt, err)
			}
		}
	}
	cfg := ofar.DefaultConfig(8)
	cfg.Ring, cfg.NumRings = ofar.RingEmbedded, 2
	if _, err := resolveBounded(Request{Config: &cfg, Loads: []float64{0.1}}, 1); err != nil {
		t.Errorf("h=8, two embedded rings: %v", err)
	}
}

// TestBadOFARPolicyRejected: an OFAR policy with no usable non-minimal
// threshold is the client's error — 400 with the reason — and never reaches
// a simulation, so no panic is counted.
func TestBadOFARPolicyRejected(t *testing.T) {
	srv, ts := startServer(t, Options{})
	cfg := testConfig()
	cfg.OFAR.NonMinFactor, cfg.OFAR.StaticNonMin = 0, -1
	body, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 100, Measure: 100})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "no usable non-minimal threshold") {
		t.Errorf("HTTP %d %s; want 400 naming the policy error", resp.StatusCode, reply)
	}
	if got := srv.met.panicked.Load(); got != 0 {
		t.Errorf("sim_panics %d, want 0", got)
	}
}

// TestServerShorthandRequest exercises the h/routing/pattern shorthand the
// CLI and curl examples use, including the baseline ring-drop convention.
func TestServerShorthandRequest(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Runner: countingRunner(&calls)})
	r := postSweep(t, ts.URL, Request{H: 2, Routing: "min", Pattern: "ADV+1", Loads: []float64{0.1}, Warmup: 300, Measure: 300})
	if r.status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", r.status, r.raw)
	}
	if len(r.points) != 1 || r.points[0].Error != "" {
		t.Fatalf("points: %+v", r.points)
	}
	var got ofar.SteadyResult
	if err := json.Unmarshal(r.points[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Routing != ofar.MIN || got.Pattern != "ADV+1" {
		t.Errorf("result routing/pattern = %v/%q, want MIN/ADV+1", got.Routing, got.Pattern)
	}
}

// TestServerJobsRequest: a job-set request runs through the same queue,
// cache and NDJSON stream as classic sweeps — loads act as scale factors,
// each point carries a full per-job JobsResult, and the identical follow-up
// request is served from cache without re-simulating.
func TestServerJobsRequest(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Sims: 2, MaxQueue: 8, Runner: countingRunner(&calls)})
	req := Request{
		H:       2,
		Jobs:    "a2a:12@0.5,ring:12@0.2",
		Loads:   []float64{0.5, 1.0},
		Warmup:  200,
		Measure: 400,
	}
	r := postSweep(t, ts.URL, req)
	if r.status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", r.status, r.raw)
	}
	if len(r.points) != 2 {
		t.Fatalf("got %d points, want 2", len(r.points))
	}
	if calls.Load() != 2 {
		t.Fatalf("cold request simulated %d points, want 2", calls.Load())
	}
	for _, p := range r.points {
		i := p.Index // points stream in completion order
		if p.Error != "" {
			t.Fatalf("point %d: %s", i, p.Error)
		}
		var jr ofar.JobsResult
		if err := json.Unmarshal(p.Result, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Scale != req.Loads[i] {
			t.Errorf("point %d scale %v, want %v", i, jr.Scale, req.Loads[i])
		}
		if len(jr.Jobs) != 2 {
			t.Errorf("point %d carries %d job rows, want 2", i, len(jr.Jobs))
		}
		if jr.Jobs[0].Job != "a2a0" || jr.Jobs[1].Job != "ring1" {
			t.Errorf("point %d job names %q/%q", i, jr.Jobs[0].Job, jr.Jobs[1].Job)
		}
	}

	// Identical request: all cache, no new simulations.
	r2 := postSweep(t, ts.URL, req)
	if r2.status != http.StatusOK {
		t.Fatalf("second request: HTTP %d", r2.status)
	}
	if calls.Load() != 2 {
		t.Errorf("cached request re-simulated: %d calls total, want 2", calls.Load())
	}
	for i, p := range r2.points {
		if p.Source != "cache" {
			t.Errorf("point %d source %q, want cache", i, p.Source)
		}
	}

	// A different mapping is a different cache identity.
	req.JobMap = "random"
	r3 := postSweep(t, ts.URL, req)
	if r3.status != http.StatusOK {
		t.Fatalf("random-map request: HTTP %d", r3.status)
	}
	if calls.Load() != 4 {
		t.Errorf("random-map request hit the linear cache: %d calls, want 4", calls.Load())
	}

	// Jobs and pattern together must be rejected.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"h":2,"jobs":"a2a:8@0.5","pattern":"UN","loads":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("jobs+pattern: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSectionRequestsCached: a Fig. 6-shaped transient request and a Fig. 7
// burst request are served and cached like sweeps — the identical second
// request comes from cache with no new simulation — and a section is a cache
// identity of its own: the transient's key is not the key of the steady
// request with the same loads.
func TestSectionRequestsCached(t *testing.T) {
	var calls atomic.Int64
	_, ts := startServer(t, Options{Sims: 2, MaxQueue: 8, Runner: countingRunner(&calls)})
	// post sends req and returns its one point, which must come from source
	// with wantCalls simulations run so far.
	post := func(req Request, source string, wantCalls int64) PointResponse {
		t.Helper()
		r := postSweep(t, ts.URL, req)
		if r.status != http.StatusOK || len(r.points) != 1 || r.points[0].Error != "" {
			t.Fatalf("HTTP %d: %s", r.status, r.raw)
		}
		if p := r.points[0]; p.Source != source || calls.Load() != wantCalls {
			t.Fatalf("point from %q after %d simulations, want %q after %d", p.Source, calls.Load(), source, wantCalls)
		}
		return r.points[0]
	}
	steady := Request{H: 2, Routing: "OFAR", Pattern: "UN", Loads: []float64{0.14}, Warmup: 1000}
	transient := steady
	transient.Transient = &ofar.Transient{After: "ADV+2", Run: 600, Drain: 800, Bucket: 100}

	cold := post(transient, "computed", 1)
	var series ofar.TransientResult
	if err := json.Unmarshal(cold.Result, &series); err != nil {
		t.Fatal(err)
	}
	if series.From != "UN" || series.To != "ADV+2" || series.SwitchAt != 1000 || len(series.Points) == 0 {
		t.Errorf("transient reply %+v", series)
	}
	if warm := post(transient, "cache", 1); warm.Key != cold.Key || !bytes.Equal(warm.Result, cold.Result) {
		t.Errorf("cached transient reply differs:\n%s\nvs\n%s", warm.Result, cold.Result)
	}
	if st := post(steady, "computed", 2); st.Key == cold.Key {
		t.Errorf("transient and steady requests share the key %s", st.Key)
	}

	burst := Request{H: 2, Routing: "OFAR", Pattern: "ADV+2", Burst: &ofar.Burst{PerNode: 10, MaxCycles: 100_000}}
	cold = post(burst, "computed", 3)
	var row ofar.BurstResult
	if err := json.Unmarshal(cold.Result, &row); err != nil {
		t.Fatal(err)
	}
	if !row.Drained || row.Packets != 10*72 || row.Pattern != "ADV+2" {
		t.Errorf("burst reply %+v", row)
	}
	if warm := post(burst, "cache", 3); !bytes.Equal(warm.Result, cold.Result) {
		t.Errorf("cached burst reply differs:\n%s\nvs\n%s", warm.Result, cold.Result)
	}
}

// TestPanickingSimulation: a simulation that panics fails its point, not the
// server. Every request waiting on the flight gets the error line, the panic
// is counted in /metrics, no pool token leaks, and the next request is
// served.
func TestPanickingSimulation(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	runner := func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		if load == 0.1 {
			calls.Add(1)
			<-release
			panic("boom")
		}
		return r.Run(load, opt)
	}
	srv, ts := startServer(t, Options{Sims: 2, MaxQueue: 16, Runner: runner})
	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 200, Measure: 200}

	const n = 4
	var wg sync.WaitGroup
	replies := make([]sweepResponse, n)
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = postSweep(t, ts.URL, req)
		}()
	}
	// Hold the leader inside the runner until every request is being served
	// and the others have had time to join its flight. The assertions below
	// hold either way: a request that misses the flight opens its own, which
	// panics too.
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.requests.Load() < n || calls.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the runner")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, r := range replies {
		if r.status != http.StatusOK || len(r.points) != 1 {
			t.Fatalf("request %d: HTTP %d, %d points: %s", i, r.status, len(r.points), r.raw)
		}
		if p := r.points[0]; !strings.Contains(p.Error, "simulation panicked: boom") || p.Result != nil {
			t.Errorf("request %d (%s): error %q, result %s; want the panic as the point's error", i, p.Source, p.Error, p.Result)
		}
		if r.summary.Errors != 1 {
			t.Errorf("request %d: summary counts %d errors, want 1", i, r.summary.Errors)
		}
	}
	if got := srv.met.panicked.Load(); got != calls.Load() || got < 1 {
		t.Errorf("panics counted %d, runner panicked %d times", got, calls.Load())
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("sweepd_sim_panics_total %d\n", calls.Load()); !strings.Contains(string(text), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, text)
	}

	// The workers returned their tokens and the server still simulates.
	next := postSweep(t, ts.URL, Request{Config: &cfg, Loads: []float64{0.2}, Warmup: 200, Measure: 200})
	if next.status != http.StatusOK || len(next.points) != 1 || next.points[0].Error != "" || next.points[0].Source != "computed" {
		t.Fatalf("request after the panic: HTTP %d %+v", next.status, next.points)
	}
	// A worker hands its point over before it returns its tokens, so give
	// the last one a moment to finish.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.pool.mu.Lock()
		tokens, capacity, inflight, depth := srv.pool.tokens, srv.pool.capacity, srv.pool.inflight, srv.pool.reserved+srv.pool.queued
		srv.pool.mu.Unlock()
		if tokens == capacity && inflight == 0 && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool after the panic: %d of %d tokens free, %d in flight, depth %d", tokens, capacity, inflight, depth)
		}
	}
}

// goid is the running goroutine's ID, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// workerPanics wraps an engine so Route panics on every goroutine but
// caller, the goroutine running the network: only a pool worker's walk
// panics. The caller's own Route calls yield, so the worker gets groups.
type workerPanics struct {
	router.Engine
	caller uint64
}

func (e workerPanics) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	if goid() != e.caller {
		panic("engine fault on a pool worker")
	}
	runtime.Gosched()
	return e.Engine.Route(rt, in, p, now)
}

// TestPanickingPoolWorker: a workers: 2 request whose simulation panics on
// one of its network's pool goroutines fails its point, not the server — a
// panic there is beyond the per-point recover unless the network hands it to
// the goroutine running it. The reply carries the panic,
// sweepd_sim_panics_total counts it, and the next request is served.
func TestPanickingPoolWorker(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("with GOMAXPROCS=1 a network walks every window on its caller: no pool worker runs")
	}
	runner := func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		if load != 0.1 {
			return r.Run(load, opt)
		}
		n, err := network.New(r.Config)
		if err != nil {
			return ofar.PointResult{}, err
		}
		defer n.Close()
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, r.Config.PacketSize))
		n.Engine = workerPanics{Engine: n.Engine, caller: goid()}
		n.Run(2000)
		return ofar.PointResult{}, fmt.Errorf("no pool worker panicked in 2000 cycles")
	}
	srv, ts := startServer(t, Options{Sims: 2, MaxQueue: 16, Runner: runner})
	cfg := testConfig()
	cfg.Workers = 2
	r := postSweep(t, ts.URL, Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 200, Measure: 200})
	if r.status != http.StatusOK || len(r.points) != 1 {
		t.Fatalf("HTTP %d, %d points: %s", r.status, len(r.points), r.raw)
	}
	if p := r.points[0]; p.Error != "simulation panicked: engine fault on a pool worker" || p.Result != nil {
		t.Fatalf("point error %q, result %s; want the worker's panic", p.Error, p.Result)
	}
	if got := srv.met.panicked.Load(); got != 1 {
		t.Errorf("panics counted %d, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "sweepd_sim_panics_total 1\n") {
		t.Errorf("/metrics lacks sweepd_sim_panics_total 1:\n%s", text)
	}
	next := postSweep(t, ts.URL, Request{Config: &cfg, Loads: []float64{0.2}, Warmup: 200, Measure: 200})
	if next.status != http.StatusOK || len(next.points) != 1 || next.points[0].Error != "" || next.points[0].Source != "computed" {
		t.Fatalf("request after the panic: HTTP %d %+v", next.status, next.points)
	}
}

// TestDiskWarmCacheJobPoints: job-set points share the disk warm cache. A
// second server on the same directory, with the results gone, restores every
// job point's warm state instead of warming, and replies byte for byte what
// the first server computed cold.
func TestDiskWarmCacheJobPoints(t *testing.T) {
	dir := t.TempDir()
	req := Request{H: 2, Jobs: "a2a:12@0.5,ring:12@0.2", Background: 0.05, Loads: []float64{0.5, 1.0}, Warmup: 300, Measure: 400}
	serve := func() (sweepResponse, int64) {
		srv, err := New(Options{DiskDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer func() { ts.Close(); srv.Close() }()
		r := postSweep(t, ts.URL, req)
		if r.status != http.StatusOK || len(r.points) != len(req.Loads) {
			t.Fatalf("HTTP %d, %d points: %s", r.status, len(r.points), r.raw)
		}
		for _, p := range r.points {
			if p.Error != "" || p.Source != "computed" {
				t.Fatalf("point %d: source %q, error %q", p.Index, p.Source, p.Error)
			}
		}
		return r, srv.met.restored.Load()
	}
	cold, restored := serve()
	if restored != 0 {
		t.Fatalf("cold server restored %d points", restored)
	}
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}
	warm, restored := serve()
	if restored != int64(len(req.Loads)) {
		t.Errorf("second server restored %d job points, want %d", restored, len(req.Loads))
	}
	for _, p := range warm.points {
		if want := cold.points[indexOf(t, cold.points, p.Index)].Result; !bytes.Equal(p.Result, want) {
			t.Errorf("point %d: restored reply differs from the cold one:\n restored %s\n cold     %s", p.Index, p.Result, want)
		}
	}
}

// fakeResult is what a stand-in runner returns for a point: cheap, and
// distinct per load.
func fakeResult(r ofar.Resolved, load float64) ofar.PointResult {
	return ofar.PointResult{SteadyResult: ofar.SteadyResult{Routing: r.Config.Routing, Pattern: r.PatternName(), Load: load}}
}

// TestServerStreamsCachedLinesFirst: in a request that mixes a cached point
// with a miss, the client reads the cached line while the miss is still
// simulating — the handler writes and flushes what it has before it blocks.
func TestServerStreamsCachedLinesFirst(t *testing.T) {
	release := make(chan struct{})
	runner := func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		if load == 0.2 {
			<-release
		}
		return fakeResult(r, load), nil
	}
	_, ts := startServer(t, Options{Sims: 2, MaxQueue: 8, Runner: runner})
	cfg := testConfig()
	warm := postSweep(t, ts.URL, Request{Config: &cfg, Loads: []float64{0.1}, Warmup: 100, Measure: 100})
	if warm.status != http.StatusOK || len(warm.points) != 1 {
		t.Fatalf("filling the cache: HTTP %d: %s", warm.status, warm.raw)
	}

	body, _ := json.Marshal(Request{Config: &cfg, Loads: []float64{0.2, 0.1}, Warmup: 100, Measure: 100})
	first := make(chan []byte, 1)
	rest := make(chan []byte, 1)
	go func() {
		defer close(rest)
		resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(first)
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		line, _ := br.ReadBytes('\n')
		first <- line
		all, _ := io.ReadAll(br)
		rest <- all
	}()
	var line []byte
	select {
	case line = <-first:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("no line reached the client while the miss was simulating")
	}
	var p PointResponse
	if err := json.Unmarshal(line, &p); err != nil || p.Index != 1 || p.Source != "cache" {
		close(release)
		t.Fatalf("first line %q (%v), want the cached point 1", line, err)
	}
	if !bytes.Equal(p.Result, warm.points[0].Result) {
		t.Errorf("cached line carries %s, want %s", p.Result, warm.points[0].Result)
	}
	close(release)
	tail := string(<-rest)
	if !strings.Contains(tail, `"index":0,`) || !strings.Contains(tail, `"source":"computed"`) || !strings.Contains(tail, `"cache_hits":1,"computed":1,`) {
		t.Errorf("rest of the reply lacks the computed point or the summary:\n%s", tail)
	}
}

// TestServerClientDisconnect: a client that gives up while its misses are
// simulating frees its handler at once; the simulations already running
// finish and fill the cache, so the identical request is then served from it
// without simulating again, and the pool ends idle with no reservation kept.
func TestServerClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	runner := func(r ofar.Resolved, load float64, opt ofar.SweepOptions) (ofar.PointResult, error) {
		calls.Add(1)
		<-release
		return fakeResult(r, load), nil
	}
	srv, err := New(Options{Sims: 2, MaxQueue: 8, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{}, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.URL.Path == "/sweep" {
			returned <- struct{}{}
		}
	}))
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
		ts.Close()
		srv.Close()
	})

	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.1, 0.2}, Warmup: 100, Measure: 100}
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(httpReq); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); calls.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("runner reached %d times, want 2", calls.Load())
		}
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("handler still waiting 1s after its client cancelled")
	}
	<-done
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner called %d times before release, want 2", got)
	}

	close(release)
	released = true
	for deadline := time.Now().Add(5 * time.Second); srv.cache.Len() < 2 || srv.pool.Depth()+srv.pool.Inflight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after release: %d cached, depth %d, in flight %d", srv.cache.Len(), srv.pool.Depth(), srv.pool.Inflight())
		}
	}
	again := postSweep(t, ts.URL, req)
	if again.status != http.StatusOK || again.summary.CacheHits != 2 {
		t.Fatalf("identical request after the disconnect: HTTP %d, summary %+v", again.status, again.summary)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("identical request re-simulated: runner called %d times, want 2", got)
	}
}

// TestServerDiskWriteFailures: when the results directory cannot be written,
// every point is still computed and served correctly, and each failed
// persist is counted in /metrics.
func TestServerDiskWriteFailures(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	_, ts := startServer(t, Options{DiskDir: dir, Runner: countingRunner(&calls)})
	// A regular file where the directory was: writes fail even as root.
	results := filepath.Join(dir, "results")
	if err := os.RemoveAll(results); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(results, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	req := Request{Config: &cfg, Loads: []float64{0.1, 0.25}, Warmup: 300, Measure: 200}
	r := postSweep(t, ts.URL, req)
	if r.status != http.StatusOK || len(r.points) != 2 || r.summary.Computed != 2 || r.summary.Errors != 0 {
		t.Fatalf("HTTP %d, summary %+v: %s", r.status, r.summary, r.raw)
	}
	res, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.points {
		pr, err := res.Run(p.Load, ofar.SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(pr.SteadyResult)
		if !bytes.Equal(p.Result, want) {
			t.Errorf("point %d:\n served %s\n direct %s", p.Index, p.Result, want)
		}
	}
	if again := postSweep(t, ts.URL, req); again.summary.CacheHits != 2 || calls.Load() != 2 {
		t.Errorf("repeat: summary %+v after %d simulations; the memory cache should serve it", again.summary, calls.Load())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("sweepd_disk_write_errors_total %d\n", calls.Load()); !strings.Contains(string(text), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, text)
	}
}

// scrapeMetrics returns the server's /metrics text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestEmptyWindowPointCached: a point whose measurement window delivered
// nothing has no latencies (NaN in Go). Its reply carries them as JSON null
// rather than failing to encode, and the point is cached like any other:
// the identical second post is a hit, with no further miss and no error
// counted.
func TestEmptyWindowPointCached(t *testing.T) {
	_, ts := startServer(t, Options{})
	body := []byte(`{"h":2,"loads":[0.1],"warmup":10,"measure":10}`)
	first := postBody(t, ts.URL, body)
	if first.status != http.StatusOK || len(first.points) != 1 {
		t.Fatalf("HTTP %d, %d points: %s", first.status, len(first.points), first.raw)
	}
	p := first.points[0]
	if p.Error != "" || p.Source != "computed" || first.summary.Errors != 0 {
		t.Fatalf("first post: source %q, error %q, %d errors", p.Source, p.Error, first.summary.Errors)
	}
	var res map[string]any
	if err := json.Unmarshal(p.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res["Delivered"] != 0.0 {
		t.Fatalf("the window delivered %v packets, want none: %s", res["Delivered"], p.Result)
	}
	for _, k := range []string{"AvgLatency", "AvgNetLatency", "P50Latency", "P99Latency", "AvgHops"} {
		if v, ok := res[k]; !ok || v != nil {
			t.Errorf("%s = %v (present %v), want null", k, v, ok)
		}
	}
	before := scrapeMetrics(t, ts.URL)
	second := postBody(t, ts.URL, body)
	if len(second.points) != 1 || second.points[0].Source != "cache" || !bytes.Equal(second.points[0].Result, p.Result) {
		t.Fatalf("second post is not the cached point: %s", second.raw)
	}
	after := scrapeMetrics(t, ts.URL)
	for _, want := range []string{"sweepd_cache_misses_total 1\n", "sweepd_points_errored_total 0\n", "sweepd_cache_hits_total 1\n"} {
		if !strings.Contains(after, want) {
			t.Errorf("metrics after the second post lack %q:\n%s", want, after)
		}
	}
	if !strings.Contains(before, "sweepd_cache_misses_total 1\n") {
		t.Errorf("metrics after the first post lack one miss:\n%s", before)
	}
}

// slowBody hands out a body, then blocks for delay before its EOF.
type slowBody struct {
	r     io.Reader
	delay time.Duration
}

func (b *slowBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		time.Sleep(b.delay)
		b.delay = 0
	}
	return n, err
}

// TestSummaryElapsedCoversBody: the summary's elapsed_us counts the request
// from the handler's entry, so a body that takes 20 ms to arrive shows in
// it, not in what a client would put down to HTTP overhead.
func TestSummaryElapsedCoversBody(t *testing.T) {
	srv, err := New(Options{Runner: func(r ofar.Resolved, load float64, _ ofar.SweepOptions) (ofar.PointResult, error) {
		return fakeResult(r, load), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := testConfig()
	body, err := json.Marshal(Request{Config: &cfg, Loads: []float64{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", &slowBody{r: bytes.NewReader(body), delay: 20 * time.Millisecond}))
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	var sum SummaryResponse
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Type != "summary" {
		t.Fatalf("HTTP %d, no summary line (%v): %s", rec.Code, err, rec.Body.Bytes())
	}
	if sum.ElapsedUS < 20000 {
		t.Fatalf("summary elapsed_us %d, want ≥ 20000: the body took 20 ms to read", sum.ElapsedUS)
	}
}
