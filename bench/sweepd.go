package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofar"
	"ofar/internal/service"
)

// sweepdSpec sizes the service workload. Set-up is what a deployed sweepd pays
// before it can answer from its cache: start, a cold fill of coldReqs
// distinct requests split between the clients, and coalesceReqs further
// requests that both clients post at the same moment. The timed phase is a
// closed loop (sweepd callers wait for their reply) of `clients` keep-alive
// clients going round-robin over all those request bodies, every one a cache
// hit. A last phase restarts the service on the same disk directory with an
// LRU smaller than the working set, so hits come from disk.
type sweepdSpec struct {
	h, warmup, measure     int
	loads                  []float64
	coldReqs, coalesceReqs int
	diskReqs, diskLRU      int
}

func sweepdMixSpec(ctx *runCtx) sweepdSpec {
	sp := sweepdSpec{h: 3, warmup: 1000, measure: 2000, loads: []float64{0.1, 0.3, 0.5},
		coldReqs: 16, coalesceReqs: 4, diskReqs: 1000, diskLRU: 8}
	if ctx.quick {
		sp.h, sp.warmup, sp.measure, sp.coldReqs, sp.coalesceReqs, sp.diskReqs = 2, 300, 300, 4, 2, 50
	}
	return sp
}

// sweepdBody is one request body and, once its cold reply is in, the result
// bytes every later reply must carry for each point index.
type sweepdBody struct {
	json    []byte
	results [][]byte
}

// sweepdServer is an in-process service behind a loopback HTTP server.
type sweepdServer struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startSweepd(opts service.Options, clients int) (*sweepdServer, error) {
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: clients}
	return &sweepdServer{srv: srv, ts: httptest.NewServer(srv), client: &http.Client{Transport: tp}}, nil
}

func (s *sweepdServer) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// post sends one sweep request and returns the reply body and its latency.
func (s *sweepdServer) post(body []byte) ([]byte, time.Duration, error) {
	t := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t)
	if err != nil {
		return nil, dt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, dt, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, dt, nil
}

// scrape reads /metrics into a name → value map.
func (s *sweepdServer) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				m[name] = v
			}
		}
	}
	return m, sc.Err()
}

// parseReply decodes an NDJSON reply into its points, by index, and checks
// them against its summary line.
func parseReply(data []byte, points int) ([]service.PointResponse, error) {
	out := make([]service.PointResponse, points)
	var sum service.SummaryResponse
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var p service.PointResponse
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, err
		}
		switch p.Type {
		case "point":
			if p.Index < 0 || p.Index >= points || p.Error != "" {
				return nil, fmt.Errorf("bad point line %s", line)
			}
			out[p.Index] = p
			seen++
		case "summary":
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, err
			}
		}
	}
	if seen != points || sum.Points != points || sum.Errors != 0 {
		return nil, fmt.Errorf("reply has %d point lines, summary %+v, want %d points", seen, sum, points)
	}
	return out, nil
}

var sourceCache = []byte(`"source":"cache"`)

// verifyCached checks a reply that must be served entirely from the cache:
// every point sourced from it and every result byte-equal to the cold one.
// It scans instead of decoding, to keep the client cheap next to the server.
func (b *sweepdBody) verifyCached(data []byte) error {
	if n := bytes.Count(data, sourceCache); n != len(b.results) {
		return fmt.Errorf("%d of %d points served from cache", n, len(b.results))
	}
	for i, r := range b.results {
		if !bytes.Contains(data, r) {
			return fmt.Errorf("point %d differs from its cold result", i)
		}
	}
	return nil
}

// summaryElapsedUS extracts the summary line's elapsed_us (the server-side
// time of the whole request) without decoding the reply.
func summaryElapsedUS(data []byte) float64 {
	const key = `"elapsed_us":`
	i := bytes.LastIndex(data, []byte(key))
	if i < 0 {
		return 0
	}
	rest := data[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(rest[:end]), 64)
	return v
}

// clientLog is what one client of a cached phase observed.
type clientLog struct {
	latMS, serverUS, sliceRate []float64
	failed                     int64
	err                        error
}

// request posts a body whose reply must come entirely from the cache, checks
// it and logs its latency (and, on a traced run, the server-side time).
func (lg *clientLog) request(server *sweepdServer, b *sweepdBody, traced bool) {
	data, dt, err := server.post(b.json)
	if err == nil {
		err = b.verifyCached(data)
	}
	if err != nil {
		lg.failed++
		lg.err = err
		return
	}
	lg.latMS = append(lg.latMS, ms(dt))
	if traced {
		lg.serverUS = append(lg.serverUS, summaryElapsedUS(data))
	}
}

// cachedPhase runs one goroutine per client and folds their logs into one,
// counting every request into the outcome.
func cachedPhase(o *outcome, clients int, client func(c int, lg *clientLog)) clientLog {
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c, &logs[c])
		}(c)
	}
	wg.Wait()
	var all clientLog
	for _, lg := range logs {
		all.latMS = append(all.latMS, lg.latMS...)
		all.serverUS = append(all.serverUS, lg.serverUS...)
		all.sliceRate = append(all.sliceRate, lg.sliceRate...)
		all.failed += lg.failed
		if lg.err != nil {
			all.err = lg.err
		}
	}
	o.attempted += int64(len(all.latMS)) + all.failed
	o.failed += all.failed
	return all
}

// sweepdFill is one set-up: a fresh service on dir, the cold fill and the
// coalescing burst. It records what the cold replies carried into bodies.
type sweepdFill struct {
	server            *sweepdServer
	coldMS            []float64
	coldSec           float64
	computed, joined  float64 // coalescing burst: points computed / coalesced or hit
	shed, pointCostMS float64
}

func sweepdSetup(ctx *runCtx, o *outcome, sp sweepdSpec, bodies []*sweepdBody, dir string, clients, index int) (*sweepdFill, error) {
	tr := ctx.tr
	op := tr.newOp()
	ss := tr.begin(op, rootSpan, "bench", "setup")
	defer func() { tr.end(ss, 1) }()
	cs := tr.begin(op, ss, "service", "new")
	server, err := startSweepd(service.Options{DiskDir: dir}, clients)
	tr.end(cs, 1)
	if err != nil {
		return nil, err
	}
	fill := &sweepdFill{server: server}
	var mu sync.Mutex
	var firstErr error
	// checkReply holds a decoded reply against the body's cold results,
	// recording them when this is the first reply seen for the body.
	checkReply := func(b *sweepdBody, data []byte) ([]service.PointResponse, error) {
		pts, err := parseReply(data, len(sp.loads))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if b.results == nil {
			for _, p := range pts {
				b.results = append(b.results, p.Result)
			}
		}
		for i, p := range pts {
			if !bytes.Equal(p.Result, b.results[i]) {
				return nil, fmt.Errorf("point %d differs from the first reply for this request", i)
			}
		}
		return pts, nil
	}

	// run has every client post the bodies of its stride, holds each reply
	// against the body's cold results, and hands its points to check.
	run := func(phase string, set []*sweepdBody, check func(pts []service.PointResponse, dt time.Duration) error) {
		ps := tr.begin(op, ss, "service", phase)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(set); i += clients {
					rs := tr.begin(op, ps, "service", "request."+phase)
					data, dt, err := server.post(set[i].json)
					tr.end(rs, int64(len(sp.loads)))
					var pts []service.PointResponse
					if err == nil {
						pts, err = checkReply(set[i], data)
					}
					if err == nil {
						err = check(pts, dt)
					}
					mu.Lock()
					o.attempted++
					if err != nil {
						o.failed++
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %w", phase, err)
						}
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		tr.end(ps, int64(len(set)))
	}

	t := time.Now()
	run("cold", bodies[:sp.coldReqs], func(pts []service.PointResponse, dt time.Duration) error {
		for _, p := range pts {
			if p.Source != "computed" {
				return fmt.Errorf("cold point served from %q", p.Source)
			}
		}
		mu.Lock()
		fill.coldMS = append(fill.coldMS, ms(dt))
		mu.Unlock()
		return nil
	})
	fill.coldSec = time.Since(t).Seconds()
	before, err := server.scrape()
	if err != nil {
		return nil, err
	}

	// Coalescing: every client posts each of the new bodies at once, so one
	// request computes a point and the others join its flight (or, if late,
	// hit the cache).
	burst := make([]*sweepdBody, 0, sp.coalesceReqs*clients)
	for _, b := range bodies[sp.coldReqs:] {
		for c := 0; c < clients; c++ {
			burst = append(burst, b)
		}
	}
	run("coalesce", burst, func([]service.PointResponse, time.Duration) error { return nil })
	after, err := server.scrape()
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	fill.computed = after["sweepd_cache_misses_total"] - before["sweepd_cache_misses_total"]
	fill.joined = after["sweepd_points_coalesced_total"] - before["sweepd_points_coalesced_total"] +
		after["sweepd_cache_hits_total"] - before["sweepd_cache_hits_total"]
	fill.shed = after["sweepd_requests_shed_total"]
	fill.pointCostMS = after["sweepd_point_cost_seconds"] * 1e3
	coldPoints, burstPoints := float64(sp.coldReqs*len(sp.loads)), float64(sp.coalesceReqs*len(sp.loads))
	o.check(fmt.Sprintf("set-up %d: cold fill computes every point once", index), before["sweepd_cache_misses_total"] == coldPoints && before["sweepd_cache_hits_total"] == 0,
		"%g computed, %g hits, want %g and 0", before["sweepd_cache_misses_total"], before["sweepd_cache_hits_total"], coldPoints)
	o.check(fmt.Sprintf("set-up %d: coalescing burst computes each point once, nothing shed", index),
		fill.computed == burstPoints && fill.joined == burstPoints*float64(clients-1) && fill.shed == 0,
		"%g computed, %g coalesced or hit, %g shed; want %g, %g, 0", fill.computed, fill.joined, fill.shed, burstPoints, burstPoints*float64(clients-1))
	return fill, nil
}

func runSweepdMix(ctx *runCtx) (*outcome, error) {
	o, tr, sp := newOutcome(), ctx.tr, sweepdMixSpec(ctx)
	// Two clients even on one CPU: the coalescing burst needs a second poster.
	clients := 2
	tmp := filepath.Join(ctx.outDir, fmt.Sprintf("tmp-sweepd-%d", os.Getpid()))
	defer os.RemoveAll(tmp)

	bodies := make([]*sweepdBody, sp.coldReqs+sp.coalesceReqs)
	for i := range bodies {
		seed := ctx.seed*1000 + uint64(i)
		data, err := json.Marshal(service.Request{H: sp.h, Routing: "OFAR", Pattern: "UN", Seed: &seed,
			Loads: sp.loads, Warmup: sp.warmup, Measure: sp.measure})
		if err != nil {
			return nil, err
		}
		bodies[i] = &sweepdBody{json: data}
	}

	var (
		fill   *sweepdFill
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if fill != nil {
			fill.server.close()
			runtime.GC() // outside the timing: drop the previous set-up's service
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if fill, err = sweepdSetup(ctx, o, sp, bodies, filepath.Join(tmp, fmt.Sprint(i)), clients, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	server := fill.server
	defer func() {
		if server != nil {
			server.close()
		}
	}()
	o.e2e["setup_s"] = median(setupS)
	o.note("setup_s: %s", describe(setupS, "s"))

	// The simulated facts: every point result of every body, as first served.
	var thr, lat []float64
	for i, b := range bodies {
		for j, raw := range b.results {
			var r ofar.SteadyResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, err
			}
			thr, lat = append(thr, r.Throughput), append(lat, r.AvgLatency)
			o.facts[fmt.Sprintf("req%02d.point%d", i, j)] = string(raw)
		}
	}
	o.e2e["sim_throughput"] = mean(thr)
	o.e2e["sim_latency_avg"] = mean(lat)

	// Hot phase: closed loop over all bodies until the measuring time is up.
	// A slice is sliceReqs consecutive requests of one client; the rate is the
	// fastSide percentile of the slice rates times the number of clients.
	const sliceReqs = 250
	before, err := server.scrape()
	if err != nil {
		return nil, err
	}
	hotOp := tr.newOp()
	hs := tr.begin(hotOp, rootSpan, "service", "hot")
	measureStart := time.Now()
	hot := cachedPhase(o, clients, func(c int, lg *clientLog) {
		for k := 0; ; k += sliceReqs {
			ss := tr.begin(hotOp, hs, "service", "hot.slice")
			sliceStart := time.Now()
			for i := k; i < k+sliceReqs; i++ {
				lg.request(server, bodies[(c+i*clients)%len(bodies)], ctx.traced())
			}
			lg.sliceRate = append(lg.sliceRate, sliceReqs/time.Since(sliceStart).Seconds())
			tr.end(ss, sliceReqs)
			if ctx.expired(measureStart) {
				return
			}
		}
	})
	hotSec := time.Since(measureStart).Seconds()
	tr.end(hs, int64(len(hot.latMS)))
	after, err := server.scrape()
	if err != nil {
		return nil, err
	}
	o.check("every hot reply is served from the cache and equals its cold reply", hot.err == nil, "%v", hot.err)
	hits := after["sweepd_cache_hits_total"] - before["sweepd_cache_hits_total"]
	o.check("hot phase simulates nothing", after["sweepd_cache_misses_total"] == before["sweepd_cache_misses_total"] && hits == float64(len(hot.latMS)*len(sp.loads)),
		"%g new computations, %g hits for %d requests", after["sweepd_cache_misses_total"]-before["sweepd_cache_misses_total"], hits, len(hot.latMS))
	o.e2e["ops_per_s"] = percentile(hot.sliceRate, fastSide) * float64(clients)
	o.note("ops_per_s: cached requests per host second, closed loop of %d clients, p%d over %d slices of %d requests times %d clients; %d requests in %.2f s; latency %s",
		clients, fastSide, len(hot.sliceRate), sliceReqs, clients, len(hot.latMS), hotSec, describe(hot.latMS, "ms"))

	// Disk phase: a second service on the same directory whose LRU is smaller
	// than the working set, so most hits are read back from disk.
	server.close()
	server, err = startSweepd(service.Options{DiskDir: filepath.Join(tmp, fmt.Sprint(setups-1)), CacheEntries: sp.diskLRU}, clients)
	if err != nil {
		return nil, err
	}
	diskOp := tr.newOp()
	ds := tr.begin(diskOp, rootSpan, "service", "disk")
	disk := cachedPhase(o, clients, func(c int, lg *clientLog) {
		for k := c; k < sp.diskReqs; k += clients {
			rs := tr.begin(diskOp, ds, "service", "request.disk")
			lg.request(server, bodies[k%len(bodies)], false)
			tr.end(rs, int64(len(sp.loads)))
		}
	})
	tr.end(ds, int64(sp.diskReqs))
	diskMetrics, err := server.scrape()
	if err != nil {
		return nil, err
	}
	o.check("every disk-backed reply equals its cold reply and simulates nothing", disk.err == nil && diskMetrics["sweepd_cache_misses_total"] == 0,
		"%v; %g computations", disk.err, diskMetrics["sweepd_cache_misses_total"])
	if !ctx.traced() {
		return o, nil
	}
	l := o.layer
	l["service.cold.req_ms_p50"] = median(fill.coldMS)
	l["service.cold.points_per_s"] = float64(sp.coldReqs*len(sp.loads)) / fill.coldSec
	l["service.cached.req_ms_p50"] = median(hot.latMS)
	l["service.cached.req_ms_p99"] = percentile(hot.latMS, 99)
	l["service.cached.server_us_p50"] = median(hot.serverUS)
	l["service.cached.http_overhead_us"] = median(hot.latMS)*1e3 - median(hot.serverUS)
	l["service.disk.req_ms_p50"] = median(disk.latMS)
	l["service.computed_points"] = before["sweepd_cache_misses_total"]
	l["service.coalesced_points"] = fill.joined
	l["service.cache_hits"] = hits
	l["service.shed"] = fill.shed
	l["service.point_cost_ms"] = fill.pointCostMS
	setPhases(l, ofar.PhaseNanos{
		Events:   int64(before[`sweepd_step_phase_seconds_total{phase="events"}`] * 1e9),
		Generate: int64(before[`sweepd_step_phase_seconds_total{phase="generate"}`] * 1e9),
		PB:       int64(before[`sweepd_step_phase_seconds_total{phase="pb"}`] * 1e9),
		Routers:  int64(before[`sweepd_step_phase_seconds_total{phase="routers"}`] * 1e9),
		Cycles:   int64(before["sweepd_step_phase_cycles_total"]),
	})
	o.note("service.cold.req_ms: %s", describe(fill.coldMS, "ms"))
	o.note("service.disk.req_ms: %s", describe(disk.latMS, "ms"))
	runProbes(ctx, o)
	return o, nil
}
