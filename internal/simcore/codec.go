package simcore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc and Dec are the little-endian binary codec behind simulator snapshots
// and trace files. The format is deliberately dumb — fixed-width integers,
// varints, length-prefixed byte strings, no framing — because the consumers
// are the snapshot walks in the stats, router, topology and network packages
// and the trace codec, which know their own structure and only need the
// bytes to round trip deterministically.
//
// Dec latches its first error: every accessor after a failure returns the
// zero value without advancing, so decode code can run straight-line and
// check Err() once per logical section. Every read is bounds-checked against
// the remaining input; a truncated or corrupted stream produces an error,
// never a panic. Counts must go through Len (or, in a walk, Codec.Len and
// Records), which enforces a caller-supplied upper bound so a corrupted
// length can neither allocate unbounded memory nor index out of range
// downstream.

// Enc appends fixed-width values to a growing buffer. Encoding never fails.
type Enc struct {
	b []byte
}

// Data returns the encoded bytes.
func (e *Enc) Data() []byte { return e.b }

// Grow makes room for n more bytes, so a writer that knows its size pays one
// allocation instead of append's doubling.
func (e *Enc) Grow(n int) { e.b = slices.Grow(e.b, n) }

// U64 appends one unsigned 64-bit value, little endian.
func (e *Enc) U64(v uint64) {
	e.b = append(e.b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends one signed 64-bit value.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends a machine int as a signed 64-bit value.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// U32 appends one unsigned 32-bit value, little endian.
func (e *Enc) U32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U16 appends one unsigned 16-bit value, little endian.
func (e *Enc) U16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a strict 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 by its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Varint appends a zig-zag varint: small magnitudes of either sign take
// one byte.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.Int(len(b))
	e.b = append(e.b, b...)
}

// Raw appends bytes without a length prefix (fixed-size fields like magic
// strings, where the reader knows the width).
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

// Dec reads the Enc format back, latching the first error.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps a byte slice for decoding. The slice is not copied.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many bytes are left unread.
func (d *Dec) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
}

// Fail latches a formatted error (decoders use it for semantic validation —
// a structurally readable value that is impossible for the target state).
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("simcore: decode: "+format, args...)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.Fail("truncated input: need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U64 reads one unsigned 64-bit value.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// I64 reads one signed 64-bit value.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads a machine int, failing on values outside the int range.
func (d *Dec) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.Fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// U32 reads one unsigned 32-bit value.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// U16 reads one unsigned 16-bit value.
func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return uint16(s[0]) | uint16(s[1])<<8
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads a strict 0/1 byte; any other value is an error (it would mean
// the stream is misaligned, and silently coercing would mask that).
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("invalid boolean byte at offset %d", d.off-1)
		return false
	}
}

// F64 reads a float64 from its bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads an unsigned varint. A truncated varint, one past 64 bits and
// one longer than its minimal encoding all fail, so every value has exactly
// one encoding and an image decodes only from the bytes Enc writes.
func (d *Dec) Uvarint() uint64 {
	if b := d.b[d.off:]; len(b) > 0 && b[0] < 0x80 && d.err == nil {
		d.off++ // one byte, as most fields take: nothing left to check
		return uint64(b[0])
	}
	return d.uvarint()
}

// uvarint is Uvarint's general case.
func (d *Dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.Fail("truncated varint at offset %d", d.off)
		return 0
	case n < 0:
		d.Fail("varint at offset %d overflows 64 bits", d.off)
		return 0
	case n > 1 && d.b[d.off+n-1] == 0:
		d.Fail("overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag varint, with Uvarint's checks.
func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Len reads a fixed-width count and validates it against [0, max], so a
// corrupted length fails instead of driving a huge allocation or
// out-of-range indexing.
func (d *Dec) Len(max int) int {
	v := d.I64()
	if v < 0 || v > int64(max) {
		d.Fail("count %d outside [0,%d]", v, max)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string of at most max bytes. The
// returned slice aliases the input.
func (d *Dec) Bytes(max int) []byte {
	n := d.Len(max)
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// Raw reads n bytes without a length prefix.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Checksum64 is the FNV-1a hash of a byte string, used to verify snapshot
// payload integrity before any of it is decoded into live state.
func Checksum64(b []byte) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Codec walks a value's fields in one fixed order, in either direction:
// encoding appends each visited field to an Enc, decoding overwrites it from
// a Dec. A snapshotted type's State(c *Codec) walk is therefore its whole
// layout, written once, and both directions of a Snapshot/Restore pair run
// the same code. Int stores a signed integer of any width as a zig-zag
// varint, and so do Len, Shape and String's length; U64 and F64 stay 8
// bytes wide.
//
// Checks that only mean something on the way in, and state derived from the
// visited fields, go in branches guarded by Decoding. Build a failure
// message's arguments only inside such a branch: boxing them for every field
// visited would cost an allocation each.
type Codec struct {
	e *Enc
	d *Dec
}

// Encoder returns a Codec that appends the fields it visits to e.
func Encoder(e *Enc) *Codec { return &Codec{e: e} }

// Decoder returns a Codec that overwrites the fields it visits from d.
func Decoder(d *Dec) *Codec { return &Codec{d: d} }

// Decoding reports whether the walk reads into the value.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the first decode error; encoding never fails.
func (c *Codec) Err() error {
	if c.d == nil {
		return nil
	}
	return c.d.err
}

// Fail latches a decode error (see Dec.Fail). Call it only while decoding.
func (c *Codec) Fail(format string, args ...any) { c.d.Fail(format, args...) }

// Remaining reports how many input bytes are left; 0 while encoding.
func (c *Codec) Remaining() int {
	if c.d == nil {
		return 0
	}
	return c.d.Remaining()
}

// Grow makes room for n more output bytes; a no-op while decoding.
func (c *Codec) Grow(n int) {
	if c.d == nil {
		c.e.Grow(n)
	}
}

// Integer is every signed integer type a walk visits.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

// Int visits a signed integer of any width, stored as a zig-zag varint.
// Decoding fails on a value that does not fit T.
func Int[T Integer](c *Codec, v *T) {
	if c.d == nil {
		c.e.Varint(int64(*v))
		return
	}
	x := c.d.Varint()
	if *v = T(x); int64(*v) != x {
		c.d.Fail("value %d overflows %T", x, *v)
	}
}

// Uvarint visits an unsigned value stored as a varint (table positions, ID
// deltas).
func (c *Codec) Uvarint(v *uint64) {
	if c.d == nil {
		c.e.Uvarint(*v)
	} else {
		*v = c.d.Uvarint()
	}
}

// U64 visits an unsigned 64-bit value, stored 8 bytes wide (RNG states,
// digests: values spread over all 64 bits).
func (c *Codec) U64(v *uint64) {
	if c.d == nil {
		c.e.U64(*v)
	} else {
		*v = c.d.U64()
	}
}

// U8 visits one byte.
func (c *Codec) U8(v *uint8) {
	if c.d == nil {
		c.e.U8(*v)
	} else {
		*v = c.d.U8()
	}
}

// F64 visits a float64 by its bit pattern.
func (c *Codec) F64(v *float64) {
	if c.d == nil {
		c.e.F64(*v)
	} else {
		*v = c.d.F64()
	}
}

// Bool visits a strict 0/1 byte.
func (c *Codec) Bool(v *bool) {
	if c.d == nil {
		c.e.Bool(*v)
	} else {
		*v = c.d.Bool()
	}
}

// Len visits the length of the sequence that follows it and returns it:
// encoding writes n, decoding reads a count in [0, max] that also fits the
// input left (every element takes at least one byte), so a corrupted count
// can drive neither a huge allocation nor a long loop.
func (c *Codec) Len(n, max int) int { return c.Records(n, max, 1) }

// Records is Len for a sequence whose elements take at least size bytes
// each: decoding fails a count whose elements would not fit the input left.
func (c *Codec) Records(n, max, size int) int {
	if c.d == nil {
		c.e.Varint(int64(n))
		return n
	}
	switch v := c.d.Varint(); {
	case c.d.err != nil:
	case v < 0 || v > int64(max):
		c.d.Fail("count %d outside [0,%d]", v, max)
	case v > int64(c.d.Remaining()/size):
		c.d.Fail("truncated input: %d records of at least %d bytes, %d bytes left", v, size, c.d.Remaining())
	default:
		return int(v)
	}
	return 0
}

// Shape visits a count the target's structure fixes (ports per router, job
// slots), or the slot of a field a record no longer keeps: encoding writes
// n, decoding fails unless it reads n back. what names the value in the
// error.
func (c *Codec) Shape(n int, what string) {
	if c.d == nil {
		c.e.Varint(int64(n))
		return
	}
	if v := c.d.Varint(); c.d.err == nil && v != int64(n) {
		c.d.Fail("%s: snapshot has %d, target %d", what, v, n)
	}
}

// String visits a length-prefixed string of at most max bytes.
func (c *Codec) String(s *string, max int) {
	if c.d == nil {
		c.e.Varint(int64(len(*s)))
		c.e.b = append(c.e.b, *s...)
	} else {
		*s = string(c.d.take(c.Len(0, max)))
	}
}

// RNG visits a generator's state. Decoding rejects the all-zero state, as
// SetState does.
func (c *Codec) RNG(r *RNG) {
	s := r.s
	for i := range s {
		c.U64(&s[i])
	}
	if c.d != nil && c.d.err == nil {
		if err := r.SetState(s); err != nil {
			c.d.Fail("%v", err)
		}
	}
}
