package simcore

import (
	"bytes"
	"encoding/hex"
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
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.Varint(-1)
	e.Uvarint(math.MaxUint64)

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
	for _, want := range []int64{math.MinInt64, math.MaxInt64, -1} {
		if got := d.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}

	// Int round-trips the extremes of every width.
	t.Run("int", func(t *testing.T) { roundTripInt(t, math.MinInt, math.MaxInt) })
	t.Run("int8", func(t *testing.T) { roundTripInt[int8](t, math.MinInt8, math.MaxInt8) })
	t.Run("int16", func(t *testing.T) { roundTripInt[int16](t, math.MinInt16, math.MaxInt16) })
	t.Run("int32", func(t *testing.T) { roundTripInt[int32](t, math.MinInt32, math.MaxInt32) })
	t.Run("int64", func(t *testing.T) { roundTripInt[int64](t, math.MinInt64, math.MaxInt64) })
}

// roundTripInt walks lo, hi, 0 and -1 through Int[T] and back.
func roundTripInt[T Integer](t *testing.T, lo, hi T) {
	in := []T{lo, hi, 0, -1}
	var e Enc
	c := Encoder(&e)
	for i := range in {
		Int(c, &in[i])
	}
	out := make([]T, len(in))
	c = Decoder(NewDec(e.Data()))
	for i := range out {
		Int(c, &out[i])
	}
	if err := c.Err(); err != nil || c.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, c.Remaining())
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("Int %d decoded as %d", in[i], out[i])
		}
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
	if d.U8() != 0 || d.Bool() || d.Int() != 0 || d.Bytes(8) != nil || d.Raw(1) != nil || d.Varint() != 0 {
		t.Error("reads after a latched error returned data")
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining after error = %d", d.Remaining())
	}

	// A varint cut off before its last byte fails, at every length and
	// through every walk method that reads one.
	var e Enc
	e.Varint(math.MinInt64)
	full := e.Data()
	for n := range len(full) {
		if d := NewDec(full[:n]); d.Varint() != 0 || d.Err() == nil {
			t.Errorf("a %d-byte cut of a %d-byte varint decoded", n, len(full))
		}
	}
	cut := []byte{0x80}
	for name, visit := range map[string]func(c *Codec){
		"Int":     func(c *Codec) { var v int64; Int(c, &v) },
		"Uvarint": func(c *Codec) { var v uint64; c.Uvarint(&v) },
		"Len":     func(c *Codec) { c.Len(0, 8) },
		"Shape":   func(c *Codec) { c.Shape(0, "zero") },
		"String":  func(c *Codec) { var s string; c.String(&s, 8) },
	} {
		c := Decoder(NewDec(cut))
		if visit(c); c.Err() == nil {
			t.Errorf("%s accepted a cut-off varint", name)
		}
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
	// Every value has one encoding: a varint padded with continuation bytes
	// fails, as does one that runs past 64 bits.
	for name, b := range map[string][]byte{
		"overlong zero":    {0x80, 0x00},
		"overlong one":     {0x81, 0x80, 0x00},
		"overlong 10-byte": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00},
		"past 64 bits":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"11 bytes":         {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		t.Run(name, func(t *testing.T) {
			if d := NewDec(b); d.Uvarint() != 0 || d.Err() == nil {
				t.Errorf("% x decoded as a uvarint", b)
			}
			var v int64
			c := Decoder(NewDec(b))
			if Int(c, &v); c.Err() == nil {
				t.Errorf("% x decoded as an Int", b)
			}
		})
	}
	// One past either end of every narrower width fails to decode into it.
	t.Run("int8 overflow", func(t *testing.T) { overflowInt[int8](t, math.MinInt8, math.MaxInt8) })
	t.Run("int16 overflow", func(t *testing.T) { overflowInt[int16](t, math.MinInt16, math.MaxInt16) })
	t.Run("int32 overflow", func(t *testing.T) { overflowInt[int32](t, math.MinInt32, math.MaxInt32) })
}

// overflowInt encodes lo-1 and hi+1 as int64 and requires decoding each into
// a T to fail.
func overflowInt[T Integer](t *testing.T, lo, hi T) {
	for _, x := range []int64{int64(lo) - 1, int64(hi) + 1} {
		var e Enc
		Int(Encoder(&e), &x)
		var v T
		c := Decoder(NewDec(e.Data()))
		if Int(c, &v); c.Err() == nil {
			t.Errorf("%d decoded into a %T as %d", x, v, v)
		}
	}
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

// codecImage is codecRecord's encoding with b and the fix shape set
// freely, built from Enc's primitives.
func codecImage(b, shape int64) []byte {
	var e Enc
	e.Varint(-5)
	e.Varint(b)
	e.Varint(1 << 30)
	e.U64(1 << 63)
	e.F64(math.Pi)
	e.Bool(true)
	e.Varint(5)
	e.Raw([]byte("burst"))
	e.Varint(2)
	e.Varint(3)
	e.Varint(-4)
	e.Varint(shape)
	for _, v := range []int64{7, 8, 9} {
		e.Varint(v)
	}
	return e.Data()
}

var walkRecord = codecRecord{a: -5, b: -2, c: 1 << 30, u: 1 << 63, f: math.Pi, ok: true, name: "burst", xs: []int64{3, -4}, fix: [3]int16{7, 8, 9}}

// TestCodecWalk: one walk encodes a value — integers, counts, shapes and the
// string length as zig-zag varints, U64 and F64 as 8 bytes — and decodes it
// back; decoding fails a value that overflows its field, a shape that
// differs from the target's, and a count larger than the input left.
func TestCodecWalk(t *testing.T) {
	in := walkRecord
	var e Enc
	in.state(Encoder(&e))
	const pinned = "09038080808008" + "0000000000000080" + "182d4454fb210940" + "01" + "0a6275727374" + "040607" + "060e1012"
	if got := hex.EncodeToString(e.Data()); got != pinned || !bytes.Equal(e.Data(), codecImage(-2, 3)) {
		t.Fatalf("walk encoded %s, want %s", got, pinned)
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

	for name, img := range map[string][]byte{
		"int8 overflow": codecImage(128, 3),
		"shape":         codecImage(-2, 4),
	} {
		c := Decoder(NewDec(img))
		new(codecRecord).state(c)
		if c.Err() == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}

	// A count within max but beyond the bytes left fails at once, before any
	// element is read or allocated.
	var short Enc
	short.Varint(60)
	short.Raw(make([]byte, 48))
	if c := Decoder(NewDec(short.Data())); c.Len(0, 64) != 0 || c.Err() == nil {
		t.Error("a count past the input was accepted")
	}
	// Records bounds the count by its elements' smallest size: 6 records of
	// 8 bytes fit the 48 bytes, 7 do not.
	for n, ok := range map[int64]bool{6: true, 7: false} {
		var b Enc
		b.Varint(n)
		b.Raw(make([]byte, 48))
		c := Decoder(NewDec(b.Data()))
		if got := c.Records(0, 64, 8); (c.Err() == nil) != ok || ok && got != int(n) {
			t.Errorf("%d records of 8 bytes in 48: got %d, %v", n, got, c.Err())
		}
	}
}

// FuzzCodecDecode runs arbitrary bytes through a decoding walk. It must
// never panic, and input it accepts must be the one encoding of what it
// decoded: every value has exactly one, so re-encoding reproduces the bytes
// the walk consumed.
func FuzzCodecDecode(f *testing.F) {
	img := codecImage(-2, 3)
	f.Add(img)
	f.Add(img[:20])
	f.Add(codecImage(128, 3))
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r codecRecord
		c := Decoder(NewDec(data))
		r.state(c)
		if c.Err() != nil {
			return
		}
		var e Enc
		r.state(Encoder(&e))
		if used := data[:len(data)-c.Remaining()]; !bytes.Equal(e.Data(), used) {
			t.Fatalf("decoded % x, re-encoded as % x", used, e.Data())
		}
	})
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
