package main

import (
	"bytes"
	"testing"
)

func TestDigestIgnoresOrderAndSeesContent(t *testing.T) {
	truth := map[string]string{"a": "1", "b": "2", "c": "3"}
	base := digest([]string{"s1|s2|s1 -> s2", "s3|s4|s4 -> s3"}, truth)
	if got := digest([]string{"s3|s4|s4 -> s3", "s1|s2|s1 -> s2"}, map[string]string{"c": "3", "a": "1", "b": "2"}); got != base {
		t.Error("digest depends on pair or map order")
	}
	for name, d := range map[string]string{
		"direction flipped": digest([]string{"s1|s2|s2 -> s1", "s3|s4|s4 -> s3"}, truth),
		"pair missing":      digest([]string{"s1|s2|s1 -> s2"}, truth),
		"truth changed":     digest([]string{"s1|s2|s1 -> s2", "s3|s4|s4 -> s3"}, map[string]string{"a": "1", "b": "2", "c": "4"}),
		"truth missing":     digest([]string{"s1|s2|s1 -> s2", "s3|s4|s4 -> s3"}, map[string]string{"a": "1", "b": "2"}),
	} {
		if d == base {
			t.Errorf("%s: digest did not change", name)
		}
	}
	// Quoting keeps ("a=b", "c") apart from ("a", "b=c").
	if digest(nil, map[string]string{"a=b": "c"}) == digest(nil, map[string]string{"a": "b=c"}) {
		t.Error("digest confuses a separator inside a name with the separator")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("stream-ingest")
	a, err := makeInputs(w, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(w, 5, true)
	c, _ := makeInputs(w, 6, true)
	if !bytes.Equal(a.doc, b.doc) || !bytes.Equal(a.serve[1].ingestBodies[0], b.serve[1].ingestBodies[0]) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a.doc, c.doc) || bytes.Equal(a.serve[0].ingestBodies[0], c.serve[0].ingestBodies[0]) {
		t.Error("different seeds gave the same inputs")
	}
	// Another seed is another naming and order of the same structure:
	// the same sizes everywhere, so the same work.
	if len(a.doc) != len(c.doc) || a.serve[0].ingestObs() != c.serve[0].ingestObs() || len(a.planted) != len(c.planted) {
		t.Errorf("seeds 5 and 6 differ in size: doc %d vs %d bytes, %d vs %d ingest observations, %d vs %d planted pairs",
			len(a.doc), len(c.doc), a.serve[0].ingestObs(), c.serve[0].ingestObs(), len(a.planted), len(c.planted))
	}
	if bytes.Equal(a.serve[0].ingestBodies[0], a.serve[1].ingestBodies[0]) {
		t.Error("the two serve datasets are the same stream")
	}
	// Two datasets share the refresh ops; no held-back batch goes unsent.
	st := a.serve[0]
	if len(st.refresh)+len(a.serve[1].refresh) != refreshOps || len(st.refresh) != len(st.refreshBodies) || len(st.ingest) != len(st.ingestBodies) {
		t.Fatalf("stream has %d/%d ingest and %d/%d refresh batches/bodies, want %d refresh batches over both datasets",
			len(st.ingest), len(st.ingestBodies), len(st.refresh), len(st.refreshBodies), refreshOps)
	}
	for _, batch := range st.refresh {
		if len(batch) != refreshBatch {
			t.Fatalf("refresh batch of %d records, want %d", len(batch), refreshBatch)
		}
	}
}
