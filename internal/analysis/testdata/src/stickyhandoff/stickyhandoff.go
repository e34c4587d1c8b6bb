// Package stickyhandofffix is the second stickycheck fixture: a codec
// handed to a delegate is still owed an Err check by the function that
// created it.
package stickyhandofffix

import (
	"bytes"

	"copydetect/internal/binio"
)

// encodeAll writes through a delegate and never checks: diagnostic.
func encodeAll(xs []uint64) []byte {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Int(len(xs))
	encodeEach(w, xs)
	return buf.Bytes()
}

// encodeEach is the delegate: its caller owns the final Err check.
func encodeEach(w *binio.Writer, xs []uint64) {
	for _, x := range xs {
		w.Uvarint(x)
	}
}
