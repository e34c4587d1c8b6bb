package dataset

import (
	"fmt"

	"copydetect/internal/binio"
)

// The binary dataset codec is the snapshot format of the durable
// serving layer: a Dataset carries the complete state of the Builder
// that produced it — source, item and value names in id order, every
// observation, and the gold standard — so encoding the published
// snapshot and rebuilding a Builder from the decoded Dataset
// (NewBuilderFromDataset) restores streaming-append state exactly,
// including the id assignment that makes replayed appends reproduce
// batch results.

const (
	binaryMagic   = "CDS\x01"
	maxDimension  = 1 << 28 // sources, items, values, observations
	maxItemValues = 1 << 24
)

// EncodeDataset writes ds in the binary snapshot format.
func EncodeDataset(w *binio.Writer, ds *Dataset) {
	w.String(binaryMagic)
	w.Int(ds.NumSources())
	for _, s := range ds.SourceNames {
		w.String(s)
	}
	w.Int(ds.NumItems())
	for d, name := range ds.ItemNames {
		w.String(name)
		w.Int(len(ds.ValueNames[d]))
		for _, v := range ds.ValueNames[d] {
			w.String(v)
		}
	}
	w.Int(ds.NumObservations())
	for s, obs := range ds.BySource {
		for _, o := range obs {
			w.Uvarint(uint64(s))
			w.Uvarint(uint64(o.Item))
			w.Uvarint(uint64(o.Value))
		}
	}
	w.Bool(ds.Truth != nil)
	if ds.Truth != nil {
		for _, v := range ds.Truth {
			w.Uvarint(uint64(v + 1)) // NoValue (-1) encodes as 0
		}
	}
}

// DecodeDataset reads a dataset written by EncodeDataset and returns it
// in canonical Builder-built form. The encoding lists observations by
// source and then by item, so every cell lands at the end of its item's
// list in the Builder; any other order decodes to the same dataset, only
// slower.
func DecodeDataset(r *binio.Reader) (*Dataset, error) {
	if m := r.String(); r.Err() == nil && m != binaryMagic {
		return nil, fmt.Errorf("dataset: bad binary magic %q", m)
	}
	// The name tables must intern one id per declared entry: a repeated
	// name would collapse to an earlier id, leaving the declared counts
	// larger than the tables and every later index check meaningless.
	// Well-formed encodings never repeat a name, so a collision is
	// corruption, not data. The decoded strings are fresh, so the Builder
	// takes them as they are.
	b := NewBuilder()
	numSources := r.Int(maxDimension)
	for i := 0; i < numSources && r.Err() == nil; i++ {
		name := r.String()
		if _, dup := b.sourceIDs[name]; dup {
			return nil, fmt.Errorf("dataset: duplicate source name %q in binary header", name)
		}
		b.newSource(name)
	}
	numItems := r.Int(maxDimension)
	for i := 0; i < numItems && r.Err() == nil; i++ {
		name := r.String()
		if _, dup := b.itemIDs[name]; dup {
			return nil, fmt.Errorf("dataset: duplicate item name %q in binary header", name)
		}
		it := &b.items[b.newItem(name)]
		numValues := r.Int(maxItemValues)
		for j := 0; j < numValues && r.Err() == nil; j++ {
			label := r.String()
			if _, dup := it.lookup(label); dup {
				return nil, fmt.Errorf("dataset: item %q repeats value %q in binary header", name, label)
			}
			it.newValue(label)
		}
	}
	numObs := r.Int(maxDimension)
	for i := 0; i < numObs && r.Err() == nil; i++ {
		s := SourceID(r.Uvarint())
		d := ItemID(r.Uvarint())
		v := ValueID(r.Uvarint())
		if int(s) >= numSources || int(d) >= numItems || s < 0 || d < 0 {
			return nil, fmt.Errorf("dataset: binary observation %d references source %d item %d out of range", i, s, d)
		}
		if v < 0 || int(v) >= len(b.items[d].values) {
			return nil, fmt.Errorf("dataset: binary observation %d references value %d of item %d out of range", i, v, d)
		}
		b.AddIDs(s, d, v)
	}
	if r.Bool() {
		for d := 0; d < numItems && r.Err() == nil; d++ {
			if v := ValueID(r.Uvarint()) - 1; v != NoValue {
				if v < 0 || int(v) >= len(b.items[d].values) {
					return nil, fmt.Errorf("dataset: binary truth of item %d references value %d out of range", d, v)
				}
				b.SetTruthIDs(ItemID(d), v)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dataset: decode binary: %w", err)
	}
	ds := b.Build()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
