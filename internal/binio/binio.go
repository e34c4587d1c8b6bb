// Package binio provides the little sticky-error binary encoder and
// decoder shared by the durable-storage codecs: datasets, detection
// results and fusion outcomes all serialize through it, so every layer
// agrees on one wire vocabulary (uvarints for counts and ids, IEEE-754
// bits for floats, length-prefixed strings).
//
// Both Writer and Reader latch their first error and turn every later
// call into a no-op, so codec code reads as straight-line field lists
// with a single error check at the end.
//
// Every codec in the repository hands them a *bytes.Buffer or a
// *bytes.Reader, so both use the stream's byte- and string-level methods
// (io.ByteWriter, io.StringWriter, io.ByteReader) when it has them: a
// varint costs one method call per byte, not a Read through io.ReadFull,
// and a string is written without a []byte copy. Any other stream takes
// the plain io.Writer / io.Reader path with the same results.
//
//copydetect:deterministic
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxBlob bounds a single length-prefixed string or byte slice; a
// larger prefix is treated as corruption, not attempted as an
// allocation.
const maxBlob = 1 << 28

// Writer encodes values onto an io.Writer, latching the first error.
type Writer struct {
	w   io.Writer
	bw  io.ByteWriter   // w's own WriteByte, or nil
	sw  io.StringWriter // w's own WriteString, or nil
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	wr := &Writer{w: w}
	wr.bw, _ = w.(io.ByteWriter)
	wr.sw, _ = w.(io.StringWriter)
	return wr
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) {
	if w.bw == nil {
		w.buf[0] = b
		w.write(w.buf[:1])
	} else if w.err == nil {
		w.err = w.bw.WriteByte(b)
	}
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	if x < 0x80 {
		w.Byte(byte(x))
		return
	}
	n := binary.PutUvarint(w.buf[:], x)
	w.write(w.buf[:n])
}

// Int writes a non-negative int as a uvarint.
func (w *Writer) Int(x int) {
	if x < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("binio: negative count %d", x)
		}
		return
	}
	w.Uvarint(uint64(x))
}

// Float64 writes the IEEE-754 bits of f, little-endian, so values
// round-trip bit-exactly.
func (w *Writer) Float64(f float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(f))
	w.write(w.buf[:8])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.sw == nil {
		w.write([]byte(s))
	} else if w.err == nil {
		_, w.err = w.sw.WriteString(s)
	}
}

// Reader decodes values from an io.Reader, latching the first error.
type Reader struct {
	r   io.Reader
	br  io.ByteReader          // r's own ReadByte, or nil
	rem interface{ Len() int } // r's count of unread bytes, or nil
	buf []byte                 // scratch for String and Float64
	err error
}

// NewReader returns a Reader over r. The Reader never reads past what
// it decodes, so several codecs can share one underlying stream.
func NewReader(r io.Reader) *Reader {
	rd := &Reader{r: r}
	rd.br, _ = r.(io.ByteReader)
	rd.rem, _ = r.(interface{ Len() int })
	return rd
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// fail records err (once).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// full reads exactly n bytes into the scratch buffer, which the next
// call overwrites. A stream that knows how much it still holds is asked
// first, so a corrupt length prefix fails before it sizes an allocation.
func (r *Reader) full(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.rem != nil && n > r.rem.Len() {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(err)
		return nil
	}
	return b
}

// ReadByte implements io.ByteReader.
func (r *Reader) ReadByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.br != nil {
		b, err := r.br.ReadByte()
		if err != nil {
			r.fail(err)
		}
		return b, err
	}
	b := r.full(1)
	if b == nil {
		return 0, r.err
	}
	return b[0], nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	b, _ := r.ReadByte()
	return b
}

// Bool reads a bool written by Writer.Bool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := r.ReadByte()
		if err != nil {
			if shift > 0 && err == io.EOF {
				r.err = io.ErrUnexpectedEOF // the stream ended inside the varint
			}
			return 0
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	r.fail(fmt.Errorf("binio: varint overflows a 64-bit integer"))
	return 0
}

// Int reads a count written by Writer.Int, failing on values beyond
// limit (guarding slice allocations against corrupt input).
func (r *Reader) Int(limit int) int {
	x := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if x > uint64(limit) {
		r.fail(fmt.Errorf("binio: count %d exceeds limit %d", x, limit))
		return 0
	}
	return int(x)
}

// Float64 reads an IEEE-754 double written by Writer.Float64.
func (r *Reader) Float64() float64 {
	b := r.full(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Int(maxBlob)
	if n == 0 {
		return ""
	}
	return string(r.full(n))
}
