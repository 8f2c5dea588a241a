package simcore

import (
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0xdeadbeefcafef00d)
	e.I64(-42)
	e.Int(123456)
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bytes([]byte("hello"))
	e.Bytes(nil)
	e.Raw([]byte{9, 9})

	d := NewDec(e.Data())
	if got := d.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := string(d.Bytes(16)); got != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	if got := d.Bytes(16); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := d.Raw(2); got[0] != 9 || got[1] != 9 {
		t.Errorf("Raw = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

// TestCodecTruncation proves every accessor fails cleanly on short input and
// that the error latches: after the first failure everything returns zero.
func TestCodecTruncation(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d", got)
	}
	if d.Err() == nil {
		t.Fatal("truncated U64 did not error")
	}
	// Latched: subsequent reads stay zero and do not panic.
	if d.U8() != 0 || d.Bool() || d.Int() != 0 || d.Bytes(8) != nil || d.Raw(1) != nil {
		t.Error("reads after a latched error returned data")
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining after error = %d", d.Remaining())
	}
}

func TestCodecValidation(t *testing.T) {
	t.Run("bad bool", func(t *testing.T) {
		d := NewDec([]byte{2})
		d.Bool()
		if d.Err() == nil {
			t.Error("boolean byte 2 accepted")
		}
	})
	t.Run("negative length", func(t *testing.T) {
		var e Enc
		e.I64(-1)
		d := NewDec(e.Data())
		d.Len(10)
		if d.Err() == nil {
			t.Error("negative count accepted")
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		var e Enc
		e.I64(11)
		d := NewDec(e.Data())
		d.Len(10)
		if d.Err() == nil {
			t.Error("count above max accepted")
		}
	})
	t.Run("huge bytes length", func(t *testing.T) {
		var e Enc
		e.I64(1 << 40) // length prefix far beyond the input; must not allocate
		d := NewDec(e.Data())
		d.Bytes(64)
		if d.Err() == nil {
			t.Error("huge byte length accepted")
		}
	})
}

// codecRecord is a small value with one walk, the shape every snapshotted
// type follows.
type codecRecord struct {
	a    int
	b    int8
	c    int32
	u    uint64
	f    float64
	ok   bool
	name string
	xs   []int64
	fix  [3]int16
}

func (r *codecRecord) state(c *Codec) {
	Int(c, &r.a)
	Int(c, &r.b)
	Int(c, &r.c)
	c.U64(&r.u)
	c.F64(&r.f)
	c.Bool(&r.ok)
	c.String(&r.name, 16)
	n := c.Len(len(r.xs), 64)
	if c.Decoding() {
		r.xs = make([]int64, n)
	}
	for i := range r.xs {
		Int(c, &r.xs[i])
	}
	c.Shape(len(r.fix), "fix")
	for i := range r.fix {
		Int(c, &r.fix[i])
	}
}

// TestCodecWalk: one walk encodes a value in Enc's format (every integer as
// 64 bits) and decodes it back; decoding fails a value that overflows its
// field, a shape that differs from the target's, and a count larger than
// the input left.
func TestCodecWalk(t *testing.T) {
	in := codecRecord{a: -5, b: -2, c: 1 << 30, u: 1 << 63, f: math.Pi, ok: true, name: "burst", xs: []int64{3, -4}, fix: [3]int16{7, 8, 9}}
	var e Enc
	in.state(Encoder(&e))
	var want Enc
	want.I64(-5)
	want.I64(-2)
	want.I64(1 << 30)
	want.U64(1 << 63)
	want.F64(math.Pi)
	want.Bool(true)
	want.Bytes([]byte("burst"))
	want.Int(2)
	want.I64(3)
	want.I64(-4)
	want.Int(3)
	for _, v := range []int64{7, 8, 9} {
		want.I64(v)
	}
	if string(e.Data()) != string(want.Data()) {
		t.Fatalf("walk encoded % x, want % x", e.Data(), want.Data())
	}
	var out codecRecord
	c := Decoder(NewDec(e.Data()))
	out.state(c)
	if err := c.Err(); err != nil || c.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, c.Remaining())
	}
	if out.a != in.a || out.b != in.b || out.c != in.c || out.u != in.u || out.f != in.f ||
		out.ok != in.ok || out.name != in.name || len(out.xs) != 2 || out.xs[1] != -4 || out.fix != in.fix {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}

	// Offsets into the 110-byte image: b at 8, the fix shape at 78.
	for name, patch := range map[string][2]int64{
		"int8 overflow": {8, 128},
		"shape":         {78, 4},
	} {
		var b Enc
		b.Raw(e.Data()[:patch[0]])
		b.I64(patch[1])
		b.Raw(e.Data()[patch[0]+8:])
		c := Decoder(NewDec(b.Data()))
		new(codecRecord).state(c)
		if c.Err() == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}

	// A count within max but beyond the bytes left fails at once, before any
	// element is read or allocated.
	var short Enc
	short.Int(60)
	short.Raw(make([]byte, 48))
	if c := Decoder(NewDec(short.Data())); c.Len(0, 64) != 0 || c.Err() == nil {
		t.Error("a count past the input was accepted")
	}
}

func TestRNGSetState(t *testing.T) {
	r := NewRNG(7)
	r.Uint64()
	s := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r2 := NewRNG(99)
	if err := r2.SetState(s); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("draw %d: got %d want %d", i, got, w)
		}
	}
	if err := r2.SetState([4]uint64{}); err == nil {
		t.Error("all-zero state accepted")
	}
}

// TestWheelForEachDelay proves the delay/order contract the snapshot writer
// relies on: re-scheduling the visited (delay, event) pairs into a fresh
// wheel reproduces the original delivery stream exactly.
func TestWheelForEachDelay(t *testing.T) {
	w := NewWheel[int](10)
	w.Advance() // skew now so modular slot indexing is exercised
	w.Advance()
	w.Schedule(10, 100)
	w.Schedule(0, 1)
	w.Schedule(0, 2)
	w.Schedule(3, 30)
	w.Schedule(3, 31)

	w2 := NewWheel[int](10)
	n := 0
	w.ForEachDelay(func(delay int, ev int) {
		w2.Schedule(delay, ev)
		n++
	})
	if n != w.Pending() || w2.Pending() != w.Pending() {
		t.Fatalf("visited %d events, pending %d/%d", n, w.Pending(), w2.Pending())
	}
	for cycle := 0; cycle <= 10; cycle++ {
		a, b := w.Advance(), w2.Advance()
		if len(a) != len(b) {
			t.Fatalf("cycle %d: %v vs %v", cycle, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cycle %d event %d: %d vs %d", cycle, i, a[i], b[i])
			}
		}
	}
}
