// Command loadgen exercises a running sweepd: it fires n sweep requests with
// bounded concurrency, parses the NDJSON point streams, and reports request
// latencies, point provenance (cache / computed / coalesced) and shed (429)
// counts — the client-side view of the service's cache and admission
// behavior. With -identical every request is the same sweep, so after the
// first completes the rest should be singleflight-coalesced or cache hits.
//
//	sweepd -addr :8080 &
//	loadgen -addr http://localhost:8080 -n 32 -c 8 -h 2 -loads 0.1,0.3 -warmup 1000 -measure 1000
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofar"
)

type line struct {
	Type      string  `json:"type"`
	Source    string  `json:"source"`
	Error     string  `json:"error"`
	ElapsedUS int64   `json:"elapsed_us"`
	Load      float64 `json:"load"`
}

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "sweepd base URL")
		n         = flag.Int("n", 16, "total requests")
		c         = flag.Int("c", 4, "concurrent requests")
		h         = flag.Int("h", 2, "dragonfly parameter h")
		routing   = flag.String("routing", "OFAR", "routing mechanism")
		pattern   = flag.String("pattern", "UN", "traffic pattern")
		loadsStr  = flag.String("loads", "0.1,0.3", "comma-separated offered loads")
		warmup    = flag.Int("warmup", 1000, "warm-up cycles")
		measure   = flag.Int("measure", 1000, "measurement cycles")
		seed      = flag.Uint64("seed", 1, "base seed")
		identical = flag.Bool("identical", true, "send identical requests (false: vary the seed per request)")
		jobs      = flag.String("jobs", "", "job-level workload spec instead of -pattern (loads become scale factors)")
		jobMap    = flag.String("jobmap", "", "job placement: linear or random")
		bg        = flag.Float64("bg", 0, "uniform background load on unplaced nodes")
		retries   = flag.Int("retries", 3, "attempts per request when shed with 429 (Retry-After honored between attempts)")
	)
	flag.Parse()
	if err := checkWindows(*warmup, *measure); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	// Accept the same bare host:port (or :port) form sweepd's -addr takes.
	if !strings.Contains(*addr, "://") {
		if strings.HasPrefix(*addr, ":") {
			*addr = "localhost" + *addr
		}
		*addr = "http://" + *addr
	}

	var loads []float64
	for _, part := range strings.Split(*loadsStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: bad load %q: %v\n", part, err)
			os.Exit(1)
		}
		loads = append(loads, v)
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		sources   = map[string]int{}
		shed      atomic.Int64 // 429 responses seen (each attempt counts)
		gaveUp    atomic.Int64 // requests that exhausted their retry budget on 429s
		failed    atomic.Int64 // transport errors and non-429 HTTP failures
		pointErrs atomic.Int64
	)
	sem := make(chan struct{}, max(*c, 1))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := ofar.Experiment{H: *h, Routing: *routing, Pattern: *pattern, Loads: loads, Warmup: *warmup, Measure: *measure,
				Jobs: *jobs, JobMap: *jobMap, Background: *bg}
			if *jobs != "" {
				req.Pattern = ""
			}
			s := *seed
			if !*identical {
				s = *seed + uint64(i)
			}
			req.Seed = &s
			body, _ := json.Marshal(req)
			t0 := time.Now()
			// A 429 is the server asking us to come back, not a failure:
			// honor its Retry-After and retry within a bounded budget.
			var resp *http.Response
			var err error
			for attempt := 1; ; attempt++ {
				resp, err = http.Post(*addr+"/sweep", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", i, err)
					return
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					break
				}
				shed.Add(1)
				delay := retryDelay(resp)
				resp.Body.Close()
				if attempt >= max(*retries, 1) {
					gaveUp.Add(1)
					return
				}
				time.Sleep(delay)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
				msg, _ := io.ReadAll(resp.Body)
				fmt.Fprintf(os.Stderr, "loadgen: request %d: HTTP %d: %s\n", i, resp.StatusCode, bytes.TrimSpace(msg))
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for sc.Scan() {
				var l line
				if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
					continue
				}
				if l.Type == "point" {
					mu.Lock()
					sources[l.Source]++
					mu.Unlock()
					if l.Error != "" {
						pointErrs.Add(1)
					}
				}
			}
			d := time.Since(t0)
			mu.Lock()
			latencies = append(latencies, d)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	slices.Sort(latencies)
	fmt.Printf("loadgen: %d requests (%d ok, %d shed/429 of which %d gave up after %d attempts, %d failed) in %v\n",
		*n, len(latencies), shed.Load(), gaveUp.Load(), max(*retries, 1), failed.Load(), wall.Round(time.Millisecond))
	if len(latencies) > 0 {
		fmt.Printf("  request latency: min %v  p50 %v  p99 %v  max %v\n",
			latencies[0].Round(time.Microsecond), quantile(latencies, 0.5).Round(time.Microsecond),
			quantile(latencies, 0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
	}
	fmt.Printf("  points: cache=%d computed=%d coalesced=%d errors=%d\n",
		sources["cache"], sources["computed"], sources["coalesced"], pointErrs.Load())

	if resp, err := http.Get(*addr + "/metrics"); err == nil {
		defer resp.Body.Close()
		fmt.Println("server /metrics:")
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fmt.Println("  " + sc.Text())
		}
	}
}

// checkWindows refuses windows a request cannot carry: a 0 is left out of
// the request body, so sweepd would run its default window instead.
func checkWindows(warmup, measure int) error {
	if warmup < 1 || measure < 1 {
		return fmt.Errorf("-warmup %d / -measure %d: want ≥ 1 (a 0 is omitted from the request and sweepd runs its 3000/5000-cycle default)", warmup, measure)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted, the ceil(q·n)-th order
// statistic (the rule sweepd's /metrics quantiles use); 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// retryDelay extracts the server's requested backoff from a 429 response:
// the Retry-After header (integer seconds) first, the JSON body's
// retry_after_s as fallback, a small default when neither parses — clamped
// to [0, 5s] so a confused server cannot park the client.
func retryDelay(resp *http.Response) time.Duration {
	const (
		fallback = 100 * time.Millisecond
		maxDelay = 5 * time.Second
	)
	d := time.Duration(-1)
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d < 0 {
		var body struct {
			RetryAfterS float64 `json:"retry_after_s"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.RetryAfterS >= 0 {
			d = time.Duration(body.RetryAfterS * float64(time.Second))
		}
	}
	if d < 0 {
		d = fallback
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d
}
