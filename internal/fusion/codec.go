package fusion

import (
	"fmt"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/binio"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
)

// Outcome binary encode/decode: the truth-finding half of the serving
// layer's snapshot format. Together with the dataset and Result codecs
// it lets a restarted server publish the exact pre-crash round without
// recomputing it.

const (
	maxOutcomeDim = 1 << 28
	maxRoundStats = 1 << 20
)

// EncodeOutcome writes out in the binary snapshot format.
func EncodeOutcome(w *binio.Writer, out *Outcome) {
	encodeFloatRows(w, out.State.P)
	encodeFloats(w, out.State.A)
	w.Bool(false) // popularity flag: no producer sets it (see DecodeOutcome)
	core.EncodeResult(w, out.Copy)
	w.Int(len(out.Truth))
	for _, v := range out.Truth {
		w.Uvarint(uint64(v + 1)) // NoValue (-1) encodes as 0
	}
	w.Int(out.Rounds)
	w.Int(len(out.RoundStats))
	for _, s := range out.RoundStats {
		core.EncodeStats(w, s)
	}
	core.EncodeStats(w, out.TotalStats)
	w.Uvarint(uint64(out.FusionTime))
}

// DecodeOutcome reads an outcome written by EncodeOutcome.
func DecodeOutcome(r *binio.Reader) (*Outcome, error) {
	out := &Outcome{State: &bayes.State{}}
	out.State.P = decodeFloatRows(r)
	out.State.A = decodeFloats(r)
	// The popularity flag: the model has no per-value popularity table and
	// EncodeOutcome always writes false, so a set flag is malformed input.
	if r.Bool() {
		return nil, fmt.Errorf("fusion: decode outcome: popularity flag set")
	}
	var err error
	out.Copy, err = core.DecodeResult(r)
	if err != nil {
		return nil, fmt.Errorf("fusion: decode outcome: %w", err)
	}
	if n := r.Int(maxOutcomeDim); n > 0 {
		out.Truth = make([]dataset.ValueID, n)
		for i := range out.Truth {
			out.Truth[i] = dataset.ValueID(r.Uvarint()) - 1
		}
	}
	out.Rounds = r.Int(maxRoundStats)
	if n := r.Int(maxRoundStats); n > 0 {
		out.RoundStats = make([]core.Stats, n)
		for i := range out.RoundStats {
			out.RoundStats[i] = core.DecodeStats(r)
		}
	}
	out.TotalStats = core.DecodeStats(r)
	out.FusionTime = time.Duration(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fusion: decode outcome: %w", err)
	}
	return out, nil
}

// encodeFloatRows writes a ragged float matrix, preserving nil rows
// (an item with no observed values has a nil probability row).
func encodeFloatRows(w *binio.Writer, rows [][]float64) {
	w.Int(len(rows))
	for _, row := range rows {
		encodeFloats(w, row)
	}
}

func decodeFloatRows(r *binio.Reader) [][]float64 {
	// Int returns 0 once the sticky error is set, so n == 0 covers the
	// error case too; the caller owns the final Err check.
	n := r.Int(maxOutcomeDim)
	if n == 0 {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = decodeFloats(r)
	}
	return rows
}

func encodeFloats(w *binio.Writer, fs []float64) {
	w.Int(len(fs))
	for _, f := range fs {
		w.Float64(f)
	}
}

func decodeFloats(r *binio.Reader) []float64 {
	n := r.Int(maxOutcomeDim)
	if n == 0 { // zero on sticky error too; the caller checks Err
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.Float64()
	}
	return fs
}
