package simcore

import (
	"math"
	"testing"
)

// thresholdTrial is a Bernoulli(p) trial taken through BernoulliThreshold,
// the way ScanBelow's callers take it.
func thresholdTrial(r *RNG, p float64) bool {
	t, draws := BernoulliThreshold(p)
	if !draws {
		return t != 0
	}
	return r.Uint64()>>11 < t
}

// TestBernoulliThresholdMatchesBernoulli: for every kind of p — random,
// exact multiples of 2^-53 and their float neighbours, subnormals, the
// no-draw cases on both sides, NaN — a trial through the threshold returns
// what Bernoulli(p) returns and consumes the same number of draws; and at the
// threshold itself the integer and the float comparison flip together.
func TestBernoulliThresholdMatchesBernoulli(t *testing.T) {
	src := NewRNG(0xbe12)
	ps := []float64{
		0, math.Copysign(0, -1), -1, math.Inf(-1), 1, 1.5, 8, math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 0x1p-53, 0x1p-54, 1e-9, 0.00625, 0.05, 0.5,
		math.Nextafter(1, 0), math.Nextafter(1, 2),
	}
	for i := 0; i < 200; i++ {
		k := float64(src.Uint64() >> 11)
		p := k / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1), src.Float64(), src.Float64()*1e-6)
	}
	for _, p := range ps {
		a, b := NewRNG(src.Uint64()), new(RNG)
		*b = *a
		for i := 0; i < 64; i++ {
			if got, want := thresholdTrial(a, p), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v: threshold trial %v, Bernoulli %v", p, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("p=%v: threshold trial and Bernoulli consumed different draws", p)
			}
		}
		th, draws := BernoulliThreshold(p)
		if !draws {
			continue
		}
		for _, k := range []uint64{0, th - 1, th, th + 1, 1<<53 - 1} {
			if k >= 1<<53 { // th-1 at th == 0 (NaN); th+1 never reaches 2^53 for p < 1
				continue
			}
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v (threshold %d): draw %d below threshold %v, Float64 < p %v", p, th, k, got, want)
			}
		}
	}
}

// TestScanBelowIsUint64Loop: ScanBelow returns what the loop "draw until
// Uint64()>>11 < t, at most max times" returns and leaves the generator in
// that loop's state — including at a draw exactly equal to the threshold,
// which must miss.
func TestScanBelowIsUint64Loop(t *testing.T) {
	src := NewRNG(0x5ca9)
	for i := 0; i < 2000; i++ {
		a, b := NewRNG(src.Uint64()), new(RNG)
		*b = *a
		th := src.Uint64() >> (11 + uint(src.Intn(12))) // hit rates from ~1 down to ~2^-11
		max := src.Intn(80)
		switch i % 4 {
		case 1: // the first draw equals the threshold: a miss, by one
			probe := *a
			th, max = probe.Uint64()>>11, 1
		case 2: // ... and is just below the next one up: a hit
			probe := *a
			th, max = probe.Uint64()>>11+1, 1
		}
		wantN, wantHit := 0, false
		for wantN < max && !wantHit {
			wantHit = b.Uint64()>>11 < th
			wantN++
		}
		n, hit := a.ScanBelow(th, max)
		if n != wantN || hit != wantHit {
			t.Fatalf("ScanBelow(%d, %d) = (%d, %v), Uint64 loop (%d, %v)", th, max, n, hit, wantN, wantHit)
		}
		if a.State() != b.State() {
			t.Fatalf("ScanBelow(%d, %d) left a different state than %d Uint64 calls", th, max, wantN)
		}
	}
}

// mul64Ref is the hand-rolled 128-bit product Intn used before math/bits: the
// oracle for TestIntnMatchesMul64Formulation.
func mul64Ref(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

func intnRef(r *RNG, n int) int {
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64Ref(x, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64Ref(x, un)
		}
	}
	return int(hi)
}

// TestIntnMatchesMul64Formulation: Intn on math/bits.Mul64 returns the values
// and consumes the draws of the original formulation, for small bounds, the
// simulator's bounds and bounds large enough that rejection happens.
func TestIntnMatchesMul64Formulation(t *testing.T) {
	src := NewRNG(0x1271)
	for i := 0; i < 20000; i++ {
		n := 1 + int(src.Uint64()>>(2+uint(src.Intn(62))))
		if i%3 == 0 {
			n = math.MaxInt64/2 + 1 + int(src.Uint64()>>3) // rejects about a quarter of the draws
		}
		a, b := NewRNG(src.Uint64()), new(RNG)
		*b = *a
		for j := 0; j < 8; j++ {
			if got, want := a.Intn(n), intnRef(b, n); got != want {
				t.Fatalf("Intn(%d) = %d, mul64 formulation %d", n, got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("Intn(%d) consumed different draws than the mul64 formulation", n)
		}
	}
}
