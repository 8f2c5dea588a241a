package main

import (
	"testing"
	"time"
)

// TestQuantileNearestRank: the q-quantile of n sorted latencies is the
// ceil(q·n)-th order statistic. Indexing int(q·n) overshot by a full rank
// whenever q·n was an integer: p99 of 100 requests read the maximum and p50
// of an even count the upper middle value.
func TestQuantileNearestRank(t *testing.T) {
	ms := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{0, 0.5, 0},
		{1, 0.5, 1 * time.Millisecond},
		{1, 0.99, 1 * time.Millisecond},
		{2, 0.5, 1 * time.Millisecond},
		{4, 0.5, 2 * time.Millisecond},
		{5, 0.5, 3 * time.Millisecond},
		{100, 0.5, 50 * time.Millisecond},
		{100, 0.99, 99 * time.Millisecond},
		{101, 0.99, 100 * time.Millisecond},
		{1000, 0.99, 990 * time.Millisecond},
		{10, 0, 1 * time.Millisecond},
		{10, 1, 10 * time.Millisecond},
	} {
		if got := quantile(ms(c.n), c.q); got != c.want {
			t.Errorf("quantile(1..%d ms, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestCheckWindows: a window below 1 is refused before any request is sent —
// a 0 would be omitted from the body and silently run sweepd's default.
func TestCheckWindows(t *testing.T) {
	for _, c := range []struct {
		warmup, measure int
		ok              bool
	}{
		{1000, 1000, true},
		{1, 1, true},
		{0, 1000, false},
		{1000, 0, false},
		{-1, 1000, false},
	} {
		if err := checkWindows(c.warmup, c.measure); (err == nil) != c.ok {
			t.Errorf("checkWindows(%d, %d) = %v, want ok=%v", c.warmup, c.measure, err, c.ok)
		}
	}
}
