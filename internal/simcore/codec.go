package simcore

import (
	"fmt"
	"math"
	"slices"
)

// Enc and Dec are the little-endian binary codec behind simulator snapshots.
// The format is deliberately dumb — fixed-width integers, length-prefixed
// byte strings, no varints, no framing — because the consumers are the
// snapshot writers/readers in the stats, router, topology and network
// packages, which know their own structure and only need the bytes to round
// trip deterministically.
//
// Dec latches its first error: every accessor after a failure returns the
// zero value without advancing, so decode code can run straight-line and
// check Err() once per logical section. Every read is bounds-checked against
// the remaining input; a truncated or corrupted stream produces an error,
// never a panic. Counts must go through Len, which enforces a caller-supplied
// upper bound so a corrupted length can neither allocate unbounded memory nor
// index out of range downstream.

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

// Len reads a count and validates it against [0, max]. Every decoded count
// must pass through here so corrupted lengths fail instead of driving huge
// allocations or out-of-range indexing.
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
