package fusion

import (
	"bytes"
	"testing"

	"copydetect/internal/binio"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

// TestOutcomeCodecRoundtrip runs the real iterative process and checks
// the outcome survives encode/decode bit-exactly — the property the
// durable server's snapshots depend on.
func TestOutcomeCodecRoundtrip(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	tf := &TruthFinder{Params: p}
	out := tf.Run(ds, &core.Hybrid{Params: p})
	if out == nil {
		t.Fatal("Run returned nil")
	}

	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	EncodeOutcome(w, out)
	if err := w.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeOutcome(binio.NewReader(&buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := testkit.Diff(got, out); d != "" {
		t.Fatalf("outcome did not survive the roundtrip: %s", d)
	}
}

// TestOutcomeCodecRejectsPopularityFlag: the byte after the accuracies is
// always written false; a blob with it set — which no encoder produces — is
// refused rather than read as a table.
func TestOutcomeCodecRejectsPopularityFlag(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	out := (&TruthFinder{Params: p}).Run(ds, &core.Hybrid{Params: p})
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	encodeFloatRows(w, out.State.P)
	encodeFloats(w, out.State.A)
	w.Bool(true)
	encodeFloatRows(w, [][]float64{{0.5, 0.5}})
	core.EncodeResult(w, out.Copy)
	w.Int(0) // no truths
	w.Int(out.Rounds)
	w.Int(0) // no round stats
	core.EncodeStats(w, out.TotalStats)
	w.Uvarint(0)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeOutcome(binio.NewReader(&buf)); err == nil {
		t.Fatalf("a blob with the popularity flag set decoded: %+v", got.State)
	}
}

func TestOutcomeCodecRejectsTruncation(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	out := (&TruthFinder{Params: p}).Run(ds, &core.Hybrid{Params: p})
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	EncodeOutcome(w, out)
	for _, n := range []int{0, 1, buf.Len() / 2, buf.Len() - 1} {
		if _, err := DecodeOutcome(binio.NewReader(bytes.NewReader(buf.Bytes()[:n]))); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}
