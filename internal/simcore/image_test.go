package simcore

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// sealedImage encodes a small image the way a snapshot is laid out: a
// header, then a sealed payload holding a string and an integer.
func sealedImage(e *Enc) {
	e.Raw([]byte("HDR"))
	e.Sealed(func() {
		c := Encoder(e)
		s, v := "warm state", 1234
		c.String(&s, 64)
		Int(c, &v)
	})
}

// TestWriteImage: Sealed fills its checksum and length slots after the
// payload, so the image reads back as U64 then Bytes; WriteImage builds the
// same bytes for any writer, and into a *bytes.Buffer with room it encodes
// in the buffer's own spare capacity: the one allocation is the encoder.
func TestWriteImage(t *testing.T) {
	var plain Enc
	sealedImage(&plain)
	d := NewDec(plain.Data())
	d.Raw(3)
	sum := d.U64()
	payload := d.Bytes(64)
	if d.Err() != nil || d.Remaining() != 0 || Checksum64(payload) != sum {
		t.Fatalf("sealed image % x does not read back as checksum, length, payload", plain.Data())
	}

	roomy := bytes.NewBuffer(make([]byte, 0, 256))
	if allocs := testing.AllocsPerRun(10, func() {
		roomy.Reset()
		if err := WriteImage(roomy, len(plain.Data()), sealedImage); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("WriteImage into a bytes.Buffer with room: %.0f allocs, want ≤ 1", allocs)
	}
	if !bytes.Equal(roomy.Bytes(), plain.Data()) {
		t.Fatalf("into a bytes.Buffer: % x, want % x", roomy.Bytes(), plain.Data())
	}
	for _, size := range []int{0, 1 << 10} { // too small: the image grows past it
		var b bytes.Buffer
		if err := WriteImage(iotest.TruncateWriter(&b, 1<<20), size, sealedImage); err != nil || !bytes.Equal(b.Bytes(), plain.Data()) {
			t.Fatalf("size %d through a plain writer: % x, %v", size, b.Bytes(), err)
		}
	}
}

// TestReadImage: every reader hands decode the same bytes; a bytes.Reader
// and a bytes.Buffer hand over their own memory, and a value decoded from it
// survives the caller overwriting it — String copies. An empty reader
// decodes nil, and decode's error comes back unchanged.
func TestReadImage(t *testing.T) {
	var e Enc
	sealedImage(&e)
	img := e.Data()
	var got string
	decode := func(p []byte) error {
		d := NewDec(p)
		d.Raw(3)
		d.U64()
		c := Decoder(NewDec(d.Bytes(64)))
		c.String(&got, 64)
		return c.Err()
	}
	for _, c := range []struct {
		name    string
		inPlace bool
		reader  func([]byte) io.Reader
	}{
		{"bytes.Reader", true, func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"bytes.Buffer", true, func(b []byte) io.Reader { return bytes.NewBuffer(b) }},
		{"OneByteReader", false, func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"DataErrReader", false, func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	} {
		src := append([]byte(nil), img...)
		var at *byte
		err := ReadImage(c.reader(src), func(p []byte) error {
			at = &p[0]
			return decode(p)
		})
		if err != nil || got != "warm state" {
			t.Fatalf("%s: decoded %q, %v", c.name, got, err)
		}
		if (at == &src[0]) != c.inPlace {
			t.Errorf("%s: decoded in place %v, want %v", c.name, at == &src[0], c.inPlace)
		}
		clear(src)
		if got != "warm state" {
			t.Fatalf("%s: the decoded string changed to %q with the source bytes: it aliases them", c.name, got)
		}
	}

	for _, r := range []io.Reader{bytes.NewReader(nil), new(bytes.Buffer), iotest.OneByteReader(bytes.NewReader(nil))} {
		called := false
		if err := ReadImage(r, func(p []byte) error { called = true; return decode(p) }); !called || err == nil {
			t.Fatalf("%T: empty input decoded %v, error %v", r, called, err)
		}
	}
	bad := errors.New("refused")
	if err := ReadImage(bytes.NewReader(img), func([]byte) error { return bad }); err != bad {
		t.Fatalf("decode's error came back as %v", err)
	}
	if err := ReadImage(iotest.ErrReader(bad), decode); !errors.Is(err, bad) {
		t.Fatalf("a failing read returned %v", err)
	}
}
