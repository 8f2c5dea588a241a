package simcore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Image I/O: a snapshot image moves between a byte buffer and the state it
// encodes without an intermediate copy. WriteImage encodes into the
// destination's own spare capacity and ReadImage decodes where the bytes
// lie; any other writer or reader costs one buffer of the image's size.

// WriteImage encodes an image with fill and hands it to w in one Write.
// size is the expected length of the image. When w is a *bytes.Buffer the
// image is encoded straight into w's spare capacity, grown to size first,
// so the bytes are built once, in place; otherwise into a buffer of size.
// An image longer than size is still written whole, from a grown copy.
func WriteImage(w io.Writer, size int, fill func(*Enc)) error {
	var e Enc
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(size)
		e.b = b.AvailableBuffer()
	} else {
		e.Grow(size)
	}
	fill(&e)
	_, err := w.Write(e.b)
	return err
}

// Sealed appends a checksummed byte string: an 8-byte Checksum64 of the
// bytes payload appends, their 8-byte length, then the bytes themselves.
// Both slots are written as zero and filled in after payload returns, so
// the bytes are encoded once, in place. Dec reads it back as U64 then Bytes.
func (e *Enc) Sealed(payload func()) {
	at := len(e.b)
	e.U64(0)
	e.Int(0)
	payload()
	p := e.b[at+16:]
	binary.LittleEndian.PutUint64(e.b[at:], Checksum64(p))
	binary.LittleEndian.PutUint64(e.b[at+8:], uint64(len(p)))
}

// ReadImage hands decode every byte left in r and returns decode's error, or
// the read's. A *bytes.Reader or *bytes.Buffer gives up the bytes it holds
// through its WriteTo, in one Write: decode runs inside that call, on the
// caller's own memory, so nothing it decodes may alias the slice (io.Writer's
// rule; every Codec value and String is a copy). Any other reader is read
// whole first. Either way the reader is drained.
func ReadImage(r io.Reader, decode func([]byte) error) error {
	switch r.(type) {
	case *bytes.Reader, *bytes.Buffer:
		s := &imageSink{decode: decode}
		if _, err := r.(io.WriterTo).WriteTo(s); err != nil || s.done {
			return err
		}
		return decode(nil) // WriteTo writes nothing for an empty reader
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("simcore: image read: %w", err)
	}
	return decode(raw)
}

// imageSink is the Writer ReadImage hands a buffer's WriteTo: its one Write
// decodes the image.
type imageSink struct {
	decode func([]byte) error
	done   bool
}

func (s *imageSink) Write(p []byte) (int, error) {
	s.done = true
	return len(p), s.decode(p)
}
