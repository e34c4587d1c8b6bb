package binio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// Every test runs over both kinds of stream: one with the byte- and
// string-level methods the codecs' real streams have, and one that is an
// io.Reader or io.Writer and nothing else.
var readers = map[string]func([]byte) io.Reader{
	"bytes.Reader": func(b []byte) io.Reader { return bytes.NewReader(b) },
	"OneByteReader": func(b []byte) io.Reader {
		return iotest.OneByteReader(struct{ io.Reader }{bytes.NewReader(b)})
	},
}

// plainWriter hides every method of its buffer but Write.
type plainWriter struct{ buf *bytes.Buffer }

func (w plainWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func writers() map[string]func() (io.Writer, *bytes.Buffer) {
	return map[string]func() (io.Writer, *bytes.Buffer){
		"bytes.Buffer": func() (io.Writer, *bytes.Buffer) { b := new(bytes.Buffer); return b, b },
		"plain":        func() (io.Writer, *bytes.Buffer) { b := new(bytes.Buffer); return plainWriter{b}, b },
	}
}

var (
	uvarints = []uint64{0, 1, 0x7f, 0x80, 300, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64}
	floats   = []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	strs     = []string{"", "a", "CDS\x01", "żółć \x00 \xff", strings.Repeat("long ", 1000)}
)

// encodeAll writes every kind of field, edge values included.
func encodeAll(w *Writer) {
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	for _, x := range uvarints {
		w.Uvarint(x)
	}
	w.Int(0)
	w.Int(1 << 20)
	for _, f := range floats {
		w.Float64(f)
	}
	for _, s := range strs {
		w.String(s)
	}
}

// decodeAll reads what encodeAll wrote and lists what came back wrong.
func decodeAll(r *Reader) (wrong []string) {
	check := func(ok bool, format string, args ...any) {
		if !ok {
			wrong = append(wrong, fmt.Sprintf(format, args...))
		}
	}
	b := r.Byte()
	check(b == 0xAB, "Byte = %#x", b)
	check(r.Bool(), "Bool = false, want true")
	check(!r.Bool(), "Bool = true, want false")
	for _, want := range uvarints {
		got := r.Uvarint()
		check(got == want, "Uvarint = %d, want %d", got, want)
	}
	n := r.Int(0)
	check(n == 0, "Int = %d, want 0", n)
	n = r.Int(1 << 20)
	check(n == 1<<20, "Int = %d, want %d", n, 1<<20)
	for _, want := range floats {
		got := r.Float64()
		check(math.Float64bits(got) == math.Float64bits(want), "Float64 = %v, want %v bit for bit", got, want)
	}
	for _, want := range strs {
		got := r.String()
		check(got == want, "String = %q, want %q", got, want)
	}
	return wrong
}

func TestRoundTrip(t *testing.T) {
	var reference []byte
	for wname, mk := range writers() {
		w, buf := mk()
		enc := NewWriter(w)
		encodeAll(enc)
		if err := enc.Err(); err != nil {
			t.Fatalf("%s: encode: %v", wname, err)
		}
		if reference == nil {
			reference = buf.Bytes()
		} else if !bytes.Equal(reference, buf.Bytes()) {
			t.Fatalf("%s wrote different bytes than the other stream kind", wname)
		}
		for rname, open := range readers {
			t.Run(wname+"/"+rname, func(t *testing.T) {
				r := NewReader(open(buf.Bytes()))
				if wrong := decodeAll(r); wrong != nil || r.Err() != nil {
					t.Fatalf("decode: %q, Err %v", wrong, r.Err())
				}
				if _, err := r.ReadByte(); err != io.EOF {
					t.Fatalf("after the last field: ReadByte error %v, want io.EOF", err)
				}
			})
		}
	}
}

// TestTruncation cuts the stream at every length short of the full one:
// decoding must fail, and must keep failing with that first error.
func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc := NewWriter(&buf)
	encodeAll(enc)
	full := buf.Bytes()
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < len(full); n++ {
				r := NewReader(open(full[:n]))
				if decodeAll(r) == nil {
					t.Fatalf("cut at %d of %d: every field decoded", n, len(full))
				}
				err := r.Err()
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("cut at %d of %d: Err = %v, want an EOF error", n, len(full), err)
				}
				if r.Uvarint() != 0 || r.String() != "" || r.Float64() != 0 || r.Byte() != 0 || r.Err() != err {
					t.Fatalf("cut at %d: reads after the error are not zero-valued no-ops", n)
				}
			}
		})
	}
}

func TestReaderLimitsAndCorruption(t *testing.T) {
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			// Int over its limit.
			var buf bytes.Buffer
			NewWriter(&buf).Int(11)
			r := NewReader(open(buf.Bytes()))
			if got := r.Int(10); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds limit") {
				t.Fatalf("Int(10) of 11 = %d, Err %v", got, r.Err())
			}
			// A varint that does not fit 64 bits: ten continuation bytes,
			// and nine followed by a tenth above 1.
			for _, raw := range [][]byte{
				bytes.Repeat([]byte{0x80}, 11),
				append(bytes.Repeat([]byte{0xff}, 9), 0x02),
			} {
				r = NewReader(open(raw))
				if got := r.Uvarint(); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "overflows") {
					t.Fatalf("Uvarint(% x) = %d, Err %v", raw, got, r.Err())
				}
			}
			// A string whose length prefix promises more than the stream
			// holds, and one beyond the blob limit.
			buf.Reset()
			w := NewWriter(&buf)
			w.Uvarint(1 << 20)
			w.Byte('x')
			r = NewReader(open(buf.Bytes()))
			if got := r.String(); got != "" || r.Err() != io.ErrUnexpectedEOF {
				t.Fatalf("short string = %q, Err %v", got, r.Err())
			}
			buf.Reset()
			NewWriter(&buf).Uvarint(maxBlob + 1)
			r = NewReader(open(buf.Bytes()))
			if got := r.String(); got != "" || r.Err() == nil {
				t.Fatalf("oversized string = %q, Err %v", got, r.Err())
			}
		})
	}
}

// TestShortPrefixDoesNotAllocate: a stream that knows how much it holds
// refuses a length prefix beyond that before sizing a buffer by it.
func TestShortPrefixDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Uvarint(maxBlob)
	raw := buf.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(bytes.NewReader(raw))
		if r.String() != "" || r.Err() != io.ErrUnexpectedEOF {
			t.Fatal("short stream accepted")
		}
	})
	if allocs > 3 { // the two readers, nothing sized by the prefix
		t.Fatalf("%v allocations decoding a %d-byte prefix on an empty stream", allocs, maxBlob)
	}
}

// failAfter is a stream that accepts n bytes and then fails.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// byteStringFailer adds the fast-path methods to failAfter.
type byteStringFailer struct{ failAfter }

func (f *byteStringFailer) WriteByte(c byte) error {
	_, err := f.Write([]byte{c})
	return err
}

func (f *byteStringFailer) WriteString(s string) (int, error) { return f.Write([]byte(s)) }

func TestWriterStickyError(t *testing.T) {
	boom := errors.New("disk full")
	streams := map[string]func(n int) io.Writer{
		"plain":       func(n int) io.Writer { return &failAfter{n: n, err: boom} },
		"byte+string": func(n int) io.Writer { return &byteStringFailer{failAfter{n: n, err: boom}} },
	}
	var full bytes.Buffer
	encodeAll(NewWriter(&full))
	for name, mk := range streams {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < full.Len(); n += 7 {
				w := NewWriter(mk(n))
				encodeAll(w)
				if w.Err() != boom {
					t.Fatalf("stream failing after %d bytes: Err = %v, want the stream's error", n, w.Err())
				}
			}
		})
	}
	// A negative count is the Writer's own error, and latches like any other.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-1)
	w.String("dropped")
	if w.Err() == nil || buf.Len() != 0 {
		t.Fatalf("Int(-1): Err = %v, %d bytes written", w.Err(), buf.Len())
	}
}
