package dataset

import (
	"sort"
	"strings"
)

// valueScanLimit is the domain size up to which an item's value labels
// are found by scanning its name list; an item that outgrows it gets a
// label→id map the first time it is looked up again. Most items never do
// (DESIGN.md, "Dataset layer", has the measurement), so a Builder rebuilt
// from a snapshot starts without a single per-item map.
const valueScanLimit = 16

// Builder incrementally assembles a Dataset from named observations.
// The zero value is ready to use.
//
// It holds the dataset's ByItem column directly: per item, the providers
// sorted by source. Sources are few next to items in every workload of
// the paper (Table IV), so the lists are short; and every codec and
// Records emit source-major order, where a new cell always belongs at the
// end of its list.
//
// Names handed to it may be substrings of a large buffer (a request body,
// a whole file): it clones a name at the moment it interns it and keeps
// no other, so one new label cannot pin the buffer.
type Builder struct {
	sourceIDs map[string]SourceID
	itemIDs   map[string]ItemID

	sourceNames []string
	itemNames   []string
	items       []itemColumn // by ItemID

	cells    int  // observations held: the lengths of all items' svs
	hasTruth bool // SetTruth or SetTruthIDs was called: Build emits Truth
}

// itemColumn is everything the Builder keeps about one item.
type itemColumn struct {
	values []string           // value labels in id order; append-only
	ids    map[string]ValueID // label → id, nil while values is short enough to scan
	svs    []SV               // the item's providers, sorted by source
	truth  ValueID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Source interns a source name and returns its id.
func (b *Builder) Source(name string) SourceID {
	if id, ok := b.sourceIDs[name]; ok {
		return id
	}
	return b.newSource(strings.Clone(name))
}

// newSource gives the next id to a name the caller owns and has found
// absent.
func (b *Builder) newSource(name string) SourceID {
	if b.sourceIDs == nil {
		b.sourceIDs = make(map[string]SourceID)
	}
	id := SourceID(len(b.sourceNames))
	b.sourceIDs[name] = id
	b.sourceNames = append(b.sourceNames, name)
	return id
}

// Item interns an item name and returns its id.
func (b *Builder) Item(name string) ItemID {
	if id, ok := b.itemIDs[name]; ok {
		return id
	}
	return b.newItem(strings.Clone(name))
}

func (b *Builder) newItem(name string) ItemID {
	if b.itemIDs == nil {
		b.itemIDs = make(map[string]ItemID)
	}
	id := ItemID(len(b.itemNames))
	b.itemIDs[name] = id
	b.itemNames = append(b.itemNames, name)
	b.items = append(b.items, itemColumn{truth: NoValue})
	return id
}

// Value interns a value label within an item's domain and returns its id.
func (b *Builder) Value(item ItemID, label string) ValueID {
	it := &b.items[item]
	if id, ok := it.lookup(label); ok {
		return id
	}
	return it.newValue(strings.Clone(label))
}

func (it *itemColumn) lookup(label string) (ValueID, bool) {
	if it.ids == nil && len(it.values) > valueScanLimit {
		it.ids = make(map[string]ValueID, 2*len(it.values))
		for v, name := range it.values {
			it.ids[name] = ValueID(v)
		}
	}
	if it.ids != nil {
		id, ok := it.ids[label]
		return id, ok
	}
	for v, name := range it.values {
		if name == label {
			return ValueID(v), true
		}
	}
	return 0, false
}

func (it *itemColumn) newValue(label string) ValueID {
	id := ValueID(len(it.values))
	it.values = append(it.values, label)
	if it.ids != nil {
		it.ids[label] = id
	}
	return id
}

// Add records that the named source provides the labeled value on the
// named item. Adding the same (source, item) twice overwrites the value;
// the last write wins.
func (b *Builder) Add(source, item, value string) {
	s := b.Source(source)
	d := b.Item(item)
	v := b.Value(d, value)
	b.AddIDs(s, d, v)
}

// AddRecords appends a batch of named observations in order. Together
// with calling Build after every batch it is the streaming-append path
// used by the serving layer: the Builder keeps interning across batches,
// and each Build returns an immutable snapshot of everything appended so
// far. Replaying the same records in the same order into a fresh Builder
// reproduces the same id assignment, which is what makes streamed
// detection results comparable to batch runs.
func (b *Builder) AddRecords(recs []Record) {
	for i := range recs {
		b.Add(recs[i].Source, recs[i].Item, recs[i].Value)
	}
}

// AddIDs records an observation by pre-interned ids.
func (b *Builder) AddIDs(s SourceID, d ItemID, v ValueID) {
	it := &b.items[d]
	svs := it.svs
	n := len(svs)
	if n == 0 || svs[n-1].Source < s {
		it.svs = append(svs, SV{Source: s, Value: v})
		b.cells++
		return
	}
	i := sort.Search(n, func(i int) bool { return svs[i].Source >= s })
	if svs[i].Source == s {
		svs[i].Value = v
		return
	}
	svs = append(svs, SV{})
	copy(svs[i+1:], svs[i:])
	svs[i] = SV{Source: s, Value: v}
	it.svs = svs
	b.cells++
}

// SetTruth records the gold-standard true value for the named item.
func (b *Builder) SetTruth(item, value string) {
	d := b.Item(item)
	b.SetTruthIDs(d, b.Value(d, value))
}

// SetTruthIDs records the gold-standard true value by ids.
func (b *Builder) SetTruthIDs(d ItemID, v ValueID) {
	b.items[d].truth = v
	b.hasTruth = true
}

// NumObservations reports how many (source, item) cells have been added.
func (b *Builder) NumObservations() int { return b.cells }

// NumSources reports how many distinct sources have been interned.
func (b *Builder) NumSources() int { return len(b.sourceNames) }

// NumItems reports how many distinct items have been interned.
func (b *Builder) NumItems() int { return len(b.itemNames) }

// Build materializes the dataset. The Builder can keep being used and
// Build called again, but the returned Dataset never changes.
//
// It is two linear passes and a constant number of allocations: the
// providers of all items are copied into one arena that ByItem slices,
// then transposed into a second arena by a counting sort on the source.
// Items are visited in id order, so every BySource list comes out sorted
// by item without a comparison. Everything the Builder later overwrites
// or shifts is copied; only the name tables are shared, which are
// append-only and handed out with their capacity cut to their length, so
// neither side's append can reach the other's elements.
func (b *Builder) Build() *Dataset {
	nS, nD := len(b.sourceNames), len(b.itemNames)
	ds := &Dataset{
		SourceNames: b.sourceNames[:nS:nS],
		ItemNames:   b.itemNames[:nD:nD],
		ValueNames:  make([][]string, nD),
		BySource:    make([][]Obs, nS),
		ByItem:      make([][]SV, nD),
	}
	if b.hasTruth {
		ds.Truth = make([]ValueID, nD)
	}
	svs := make([]SV, 0, b.cells)
	end := make([]int, nS+1) // after the prefix sum: end[s] is where source s's cells start
	for d := range b.items {
		it := &b.items[d]
		ds.ValueNames[d] = it.values[:len(it.values):len(it.values)]
		if b.hasTruth {
			ds.Truth[d] = it.truth
		}
		if len(it.svs) == 0 {
			continue
		}
		at := len(svs)
		svs = append(svs, it.svs...)
		ds.ByItem[d] = svs[at:len(svs):len(svs)]
		for _, sv := range it.svs {
			end[sv.Source+1]++
		}
	}
	for s := 0; s < nS; s++ {
		end[s+1] += end[s]
	}
	obs := make([]Obs, b.cells)
	for d, list := range ds.ByItem {
		for _, sv := range list {
			obs[end[sv.Source]] = Obs{Item: ItemID(d), Value: sv.Value}
			end[sv.Source]++
		}
	}
	// Every cursor has run to the end of its source's cells.
	start := 0
	for s := range ds.BySource {
		if end[s] > start {
			ds.BySource[s] = obs[start:end[s]:end[s]]
		}
		start = end[s]
	}
	return ds
}

// NewBuilderFromDataset reconstructs the Builder state that produced
// ds: interning tables in the dataset's id order, all observations, and
// the gold standard. Appending further records to the returned Builder
// continues the exact id assignment of the original stream, which is
// what lets a recovered server replay its write-ahead log on top of a
// snapshot and still publish byte-identical results.
//
// It costs one copy of the ByItem column and the two name maps. The name
// tables are shared with ds the way Build shares them; value-label maps
// are built by the first lookup that needs one.
func NewBuilderFromDataset(ds *Dataset) *Builder {
	nS, nD := len(ds.SourceNames), len(ds.ItemNames)
	b := &Builder{
		sourceIDs:   make(map[string]SourceID, nS),
		itemIDs:     make(map[string]ItemID, nD),
		sourceNames: ds.SourceNames[:nS:nS],
		itemNames:   ds.ItemNames[:nD:nD],
		items:       make([]itemColumn, nD),
		cells:       ds.NumObservations(),
	}
	for s, name := range ds.SourceNames {
		b.sourceIDs[name] = SourceID(s)
	}
	// One arena for all lists; each is cut to its length, so the first
	// insert into an item moves that item's list out and no other.
	svs := make([]SV, 0, b.cells)
	for d, name := range ds.ItemNames {
		b.itemIDs[name] = ItemID(d)
		it := &b.items[d]
		it.values = ds.ValueNames[d][:len(ds.ValueNames[d]):len(ds.ValueNames[d])]
		it.truth = NoValue
		if ds.Truth != nil && ds.Truth[d] != NoValue {
			b.SetTruthIDs(ItemID(d), ds.Truth[d])
		}
		at := len(svs)
		svs = append(svs, ds.ByItem[d]...)
		it.svs = svs[at:len(svs):len(svs)]
	}
	return b
}
