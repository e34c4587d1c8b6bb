package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Record is one named observation — the unit of streaming appends
// (Builder.AddRecords) and of the copydetectd wire format.
type Record struct {
	Source string `json:"s"`
	Item   string `json:"d"`
	Value  string `json:"v"`
}

// Records flattens ds into named observation records, ordered by source
// id and then by item id. The order is deterministic, so replaying the
// records into a fresh Builder (all at once or batch by batch) rebuilds a
// dataset with identical id assignment.
func Records(ds *Dataset) []Record {
	recs := make([]Record, 0, ds.NumObservations())
	for s, obs := range ds.BySource {
		for _, o := range obs {
			recs = append(recs, Record{
				Source: ds.SourceNames[s],
				Item:   ds.ItemNames[o.Item],
				Value:  ds.ValueNames[o.Item][o.Value],
			})
		}
	}
	return recs
}

// TruthRecords flattens the gold standard of ds into (item, value)
// records, with Source left empty. It returns nil when ds has no truth.
func TruthRecords(ds *Dataset) []Record {
	if ds.Truth == nil {
		return nil
	}
	var recs []Record
	for d, v := range ds.Truth {
		if v != NoValue {
			recs = append(recs, Record{Item: ds.ItemNames[d], Value: ds.ValueNames[d][v]})
		}
	}
	return recs
}

// jsonDataset is the on-disk JSON form of a dataset: a compact,
// human-inspectable triple store plus optional truth.
type jsonDataset struct {
	Sources      []string          `json:"sources"`
	Items        []string          `json:"items"`
	Observations []Record          `json:"observations"`
	Truth        map[string]string `json:"truth,omitempty"`
}

// WriteJSON serializes the dataset as JSON.
func WriteJSON(w io.Writer, ds *Dataset) error {
	jd := jsonDataset{
		Sources: ds.SourceNames,
		Items:   ds.ItemNames,
	}
	if ds.NumObservations() > 0 { // an empty dataset has always written null
		jd.Observations = Records(ds)
	}
	if ds.Truth != nil {
		jd.Truth = make(map[string]string)
		for d, v := range ds.Truth {
			if v != NoValue {
				jd.Truth[ds.ItemNames[d]] = ds.ValueNames[d][v]
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jd)
}

// ReadJSON parses a dataset previously written with WriteJSON. Ids follow
// the document: sources, then items, then the observations' names, then
// any item only the truth names.
func ReadJSON(r io.Reader) (*Dataset, error) {
	// One string of the whole document, which the scanner's names are cut
	// from; sized up front when the stream says how much it holds.
	var sb strings.Builder
	if held, ok := r.(interface{ Len() int }); ok {
		sb.Grow(held.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("dataset: read json: %w", err)
	}
	doc := sb.String()
	b := NewBuilder()
	if !scanDocument(doc, b) {
		var err error
		if b, err = decodeDocument(doc); err != nil {
			return nil, err
		}
	}
	ds := b.Build()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// decodeDocument is ReadJSON for everything scanDocument leaves alone:
// the encoding/json structs decide what the document means, or why it is
// rejected.
func decodeDocument(doc string) (*Builder, error) {
	var jd jsonDataset
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&jd); err != nil {
		return nil, fmt.Errorf("dataset: decode json: %w", err)
	}
	b := NewBuilder()
	for _, s := range jd.Sources {
		b.Source(s)
	}
	for _, d := range jd.Items {
		b.Item(d)
	}
	for _, o := range jd.Observations {
		b.Add(o.Source, o.Item, o.Value)
	}
	// The map has lost the document's order, and SetTruth interns: an
	// item only the truth names gets its id here. Sorted, it is the same
	// id in every run.
	items := make([]string, 0, len(jd.Truth))
	//copydetect:orderinvariant the keys are sorted before anything is done with them
	for d := range jd.Truth {
		items = append(items, d)
	}
	sort.Strings(items)
	for _, d := range items {
		b.SetTruth(d, jd.Truth[d])
	}
	return b, nil
}

// ReadCSV parses a tabular dataset in the layout of the paper's Table I:
// the first row is a header "source,item1,item2,...", each following row is
// a source name and its value for each item; empty cells are missing
// values. Rows whose source name is "TRUTH" (case-insensitive) define the
// gold standard instead of a source.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: csv header needs a source column and at least one item column")
	}
	items := header[1:]
	b := NewBuilder()
	for _, d := range items {
		b.Item(strings.TrimSpace(d))
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv: %w", err)
		}
		line++
		if len(rec) == 0 {
			continue
		}
		name := strings.TrimSpace(rec[0])
		if name == "" {
			return nil, fmt.Errorf("dataset: csv line %d: empty source name", line)
		}
		isTruth := strings.EqualFold(name, "TRUTH")
		for i := 1; i < len(rec) && i <= len(items); i++ {
			v := strings.TrimSpace(rec[i])
			if v == "" {
				continue
			}
			if isTruth {
				b.SetTruth(items[i-1], v)
			} else {
				b.Add(name, items[i-1], v)
			}
		}
	}
	ds := b.Build()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteCSV serializes the dataset in the tabular layout read by ReadCSV.
// Datasets with very many items produce very wide files; it is intended
// for small fixtures and debugging.
func WriteCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	header := append([]string{"source"}, ds.ItemNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for s := range ds.SourceNames {
		row[0] = ds.SourceNames[s]
		for i := range ds.ItemNames {
			row[i+1] = ""
		}
		for _, o := range ds.BySource[s] {
			row[o.Item+1] = ds.ValueNames[o.Item][o.Value]
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	if ds.Truth != nil {
		row[0] = "TRUTH"
		for i := range ds.ItemNames {
			row[i+1] = ""
		}
		for d, v := range ds.Truth {
			if v != NoValue {
				row[d+1] = ds.ValueNames[d][v]
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
