package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// inputs is everything a run feeds the program, a pure function of
// (workload, seed): the batch dataset as datagen-format JSON bytes, and
// per serve dataset the record stream cut into append batches with
// every request body encoded ahead of time, so the load generator does
// no encoding while the clock runs.
//
// The seed does not pick the dataset's structure. The generator draws
// per-source coverage and accuracy, and with 55 sources (or 134 that
// matter) those few draws move the amount of detection work by ±20%
// from one generator seed to the next — more than any bound this
// benchmark could then hold across seeds. So the structure comes from a
// fixed generator seed per dataset, and the run's seed decides what a
// program could wrongly come to depend on: which source and item
// carries which name, the order records arrive in (hence every id the
// Builder assigns, the layout of every table, every tie-break), and how
// the stream is cut into batches. Every seed gives a different input of
// the same size and the same work.
type inputs struct {
	doc []byte // batch dataset, JSON
	// planted holds the generator's copier→origin pairs of the batch
	// dataset as pairKey(source names), its ground truth.
	planted map[string]bool
	serve   []*stream
}

// stream is one serve dataset's append sequence: the bulk ingest
// batches, then the held-back refresh batches.
type stream struct {
	name          string
	ingest        [][]dataset.Record
	ingestBodies  [][]byte
	refresh       [][]dataset.Record
	refreshBodies [][]byte
}

func (s *stream) ingestObs() int {
	n := 0
	for _, b := range s.ingest {
		n += len(b)
	}
	return n
}

// appendBody mirrors the daemon's append request.
type appendBody struct {
	Observations []dataset.Record `json:"observations"`
}

func makeInputs(w workload, seed int64, smoke bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	batchRecs, planted, err := generate(w.batch, 1, rng, smoke)
	if err != nil {
		return nil, fmt.Errorf("generate batch dataset: %w", err)
	}
	b := dataset.NewBuilder()
	b.AddRecords(batchRecs)
	var doc bytes.Buffer
	if err := dataset.WriteJSON(&doc, b.Build()); err != nil {
		return nil, fmt.Errorf("encode batch dataset: %w", err)
	}
	in := &inputs{doc: doc.Bytes(), planted: planted}
	for i := 0; i < w.datasets; i++ {
		recs, _, err := generate(w.serve, int64(1+i), rng, smoke)
		if err != nil {
			return nil, fmt.Errorf("generate serve dataset %d: %w", i, err)
		}
		// Refresh op j goes to dataset j mod datasets.
		ops := (refreshOps - i + w.datasets - 1) / w.datasets
		st, err := makeStream(fmt.Sprintf("ds%d", i), recs, w.ingestBatch, ops)
		if err != nil {
			return nil, err
		}
		in.serve = append(in.serve, st)
	}
	return in, nil
}

// generate makes the dataset of spec g with the fixed generator seed
// structure, then lets rng deal the source and item names anew and
// shuffle the records. It returns the records in their shuffled order
// and the planted pairs under the new names.
func generate(g genSpec, structure int64, rng *rand.Rand, smoke bool) ([]dataset.Record, map[string]bool, error) {
	base, truth, err := gen.Generate(g.config(structure, smoke))
	if err != nil {
		return nil, nil, err
	}
	sources := append([]string(nil), base.SourceNames...)
	rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	items := append([]string(nil), base.ItemNames...)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	recs := make([]dataset.Record, 0, base.NumObservations())
	for s, obs := range base.BySource {
		for _, o := range obs {
			recs = append(recs, dataset.Record{Source: sources[s], Item: items[o.Item], Value: base.ValueNames[o.Item][o.Value]})
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	planted := make(map[string]bool, len(truth.Pairs))
	for key := range truth.Pairs {
		planted[pairKey(sources[key>>32], sources[uint32(key)])] = true
	}
	return recs, planted, nil
}

// pairKey names an unordered source pair.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// makeStream cuts a dataset's records into bulk batches of ingestBatch
// records and holds the last ops refresh batches back.
func makeStream(name string, recs []dataset.Record, ingestBatch, ops int) (*stream, error) {
	held := ops * refreshBatch
	if held > len(recs)/2 {
		return nil, fmt.Errorf("dataset %s has %d records, too few to hold back %d for refresh ops", name, len(recs), held)
	}
	st := &stream{name: name}
	st.ingest = split(recs[:len(recs)-held], ingestBatch)
	st.refresh = split(recs[len(recs)-held:], refreshBatch)
	var err error
	if st.ingestBodies, err = encodeBodies(st.ingest); err != nil {
		return nil, err
	}
	st.refreshBodies, err = encodeBodies(st.refresh)
	return st, err
}

func split(recs []dataset.Record, size int) [][]dataset.Record {
	var out [][]dataset.Record
	for len(recs) > 0 {
		n := min(size, len(recs))
		out = append(out, recs[:n])
		recs = recs[n:]
	}
	return out
}

func encodeBodies(batches [][]dataset.Record) ([][]byte, error) {
	out := make([][]byte, len(batches))
	for i, b := range batches {
		body, err := json.Marshal(appendBody{Observations: b})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// digest fingerprints a detection outcome by names: the copying pairs
// with their direction, and the decided value of every item. It is what
// "the same output" means in every output check, so it must not depend
// on map order, pair order or anything timed.
func digest(pairs []string, truth map[string]string) string {
	pairs = append([]string(nil), pairs...)
	sort.Strings(pairs)
	items := make([]string, 0, len(truth))
	for d := range truth {
		items = append(items, d)
	}
	sort.Strings(items)
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "pair %s\n", p)
	}
	for _, d := range items {
		fmt.Fprintf(h, "truth %q=%q\n", d, truth[d])
	}
	return hex.EncodeToString(h.Sum(nil))
}
