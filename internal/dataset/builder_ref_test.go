package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refBuilder is the map-based Builder this package had until the columnar
// one replaced it, kept verbatim as the reference the new one is pinned
// against: one map from (source, item) to value, per-item label maps, and
// a Build that ranges the map into per-source and per-item slices and
// sorts each.
type refBuilder struct {
	sourceIDs map[string]SourceID
	itemIDs   map[string]ItemID
	valueIDs  []map[string]ValueID // per item

	sourceNames []string
	itemNames   []string
	valueNames  [][]string

	obs   map[int64]ValueID // (source,item) -> value
	truth map[ItemID]ValueID
}

func newRefBuilder() *refBuilder {
	return &refBuilder{
		sourceIDs: make(map[string]SourceID),
		itemIDs:   make(map[string]ItemID),
		obs:       make(map[int64]ValueID),
		truth:     make(map[ItemID]ValueID),
	}
}

func (b *refBuilder) Source(name string) SourceID {
	if id, ok := b.sourceIDs[name]; ok {
		return id
	}
	id := SourceID(len(b.sourceNames))
	b.sourceIDs[name] = id
	b.sourceNames = append(b.sourceNames, name)
	return id
}

func (b *refBuilder) Item(name string) ItemID {
	if id, ok := b.itemIDs[name]; ok {
		return id
	}
	id := ItemID(len(b.itemNames))
	b.itemIDs[name] = id
	b.itemNames = append(b.itemNames, name)
	b.valueIDs = append(b.valueIDs, make(map[string]ValueID))
	b.valueNames = append(b.valueNames, nil)
	return id
}

func (b *refBuilder) Value(item ItemID, label string) ValueID {
	if id, ok := b.valueIDs[item][label]; ok {
		return id
	}
	id := ValueID(len(b.valueNames[item]))
	b.valueIDs[item][label] = id
	b.valueNames[item] = append(b.valueNames[item], label)
	return id
}

func (b *refBuilder) Add(source, item, value string) {
	s := b.Source(source)
	d := b.Item(item)
	v := b.Value(d, value)
	b.AddIDs(s, d, v)
}

func (b *refBuilder) AddRecords(recs []Record) {
	for _, r := range recs {
		b.Add(r.Source, r.Item, r.Value)
	}
}

func (b *refBuilder) AddIDs(s SourceID, d ItemID, v ValueID) {
	b.obs[int64(s)<<32|int64(uint32(d))] = v
}

func (b *refBuilder) SetTruth(item, value string) {
	d := b.Item(item)
	b.truth[d] = b.Value(d, value)
}

func (b *refBuilder) NumObservations() int { return len(b.obs) }

func (b *refBuilder) Build() *Dataset {
	ds := &Dataset{
		SourceNames: append([]string(nil), b.sourceNames...),
		ItemNames:   append([]string(nil), b.itemNames...),
		ValueNames:  make([][]string, len(b.valueNames)),
		BySource:    make([][]Obs, len(b.sourceNames)),
		ByItem:      make([][]SV, len(b.itemNames)),
	}
	for d, vs := range b.valueNames {
		ds.ValueNames[d] = append([]string(nil), vs...)
	}
	for key, v := range b.obs {
		s := SourceID(key >> 32)
		d := ItemID(uint32(key))
		ds.BySource[s] = append(ds.BySource[s], Obs{Item: d, Value: v})
		ds.ByItem[d] = append(ds.ByItem[d], SV{Source: s, Value: v})
	}
	for s := range ds.BySource {
		obs := ds.BySource[s]
		sort.Slice(obs, func(i, j int) bool { return obs[i].Item < obs[j].Item })
	}
	for d := range ds.ByItem {
		svs := ds.ByItem[d]
		sort.Slice(svs, func(i, j int) bool { return svs[i].Source < svs[j].Source })
	}
	if len(b.truth) > 0 {
		ds.Truth = make([]ValueID, len(b.itemNames))
		for d := range ds.Truth {
			ds.Truth[d] = NoValue
		}
		for d, v := range b.truth {
			ds.Truth[d] = v
		}
	}
	return ds
}

// builderOp is one step of a random stream: a batch of records, a truth,
// a pre-declared name, or a Build.
type builderOp struct {
	kind  string // "records", "truth", "source", "item", "build"
	recs  []Record
	name  string
	value string
}

// randomOps draws a stream over small name pools, so cells are hit
// repeatedly (overwrites), sources arrive out of order within an item,
// some items are named only by a truth or a declaration, and a few items
// collect enough labels to outgrow valueScanLimit.
func randomOps(rng *rand.Rand, n int) []builderOp {
	nSources, nItems, nValues := 2+rng.Intn(12), 1+rng.Intn(20), 1+rng.Intn(3*valueScanLimit)
	name := func(prefix string, pool int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(pool)) }
	ops := make([]builderOp, n)
	for i := range ops {
		switch p := rng.Intn(100); {
		case p < 70:
			recs := make([]Record, rng.Intn(30))
			for j := range recs {
				recs[j] = Record{Source: name("s", nSources), Item: name("d", nItems), Value: name("v", nValues)}
			}
			ops[i] = builderOp{kind: "records", recs: recs}
		case p < 80:
			ops[i] = builderOp{kind: "truth", name: name("d", nItems+3), value: name("v", nValues+3)}
		case p < 85:
			ops[i] = builderOp{kind: "source", name: name("s", nSources+3)}
		case p < 90:
			ops[i] = builderOp{kind: "item", name: name("d", nItems+3)}
		default:
			ops[i] = builderOp{kind: "build"}
		}
	}
	return ops
}

// builderAPI is what the differential tests drive on both builders.
type builderAPI interface {
	Source(string) SourceID
	Item(string) ItemID
	AddRecords([]Record)
	SetTruth(item, value string)
	NumObservations() int
	Build() *Dataset
}

// apply runs op on b and returns the dataset a "build" step produced.
func (op builderOp) apply(b builderAPI) *Dataset {
	switch op.kind {
	case "records":
		b.AddRecords(op.recs)
	case "truth":
		b.SetTruth(op.name, op.value)
	case "source":
		b.Source(op.name)
	case "item":
		b.Item(op.name)
	case "build":
		return b.Build()
	}
	return nil
}

// TestBuilderMatchesReference: on seeded random streams, every Build of
// the columnar Builder — the interleaved ones and the final one — is
// deep-equal to the map-based reference's, nil-versus-empty slices
// included, and valid.
func TestBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := append(randomOps(rng, 5+rng.Intn(60)), builderOp{kind: "build"})
		got, want := NewBuilder(), newRefBuilder()
		for i, op := range ops {
			g, w := op.apply(got), op.apply(want)
			if got.NumObservations() != want.NumObservations() {
				t.Fatalf("seed %d op %d: %d observations, reference has %d", seed, i, got.NumObservations(), want.NumObservations())
			}
			if g == nil {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d op %d: Build differs from the reference:\n got %+v\nwant %+v", seed, i, g, w)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
	}
}

// deepCopy clones ds through a path that shares nothing with it.
func deepCopy(ds *Dataset) *Dataset {
	c := &Dataset{}
	c.SourceNames = append([]string(nil), ds.SourceNames...)
	c.ItemNames = append([]string(nil), ds.ItemNames...)
	c.Truth = append([]ValueID(nil), ds.Truth...)
	c.ValueNames = make([][]string, len(ds.ValueNames))
	for d, vs := range ds.ValueNames {
		c.ValueNames[d] = append([]string(nil), vs...)
	}
	c.BySource = make([][]Obs, len(ds.BySource))
	for s, obs := range ds.BySource {
		c.BySource[s] = append([]Obs(nil), obs...)
	}
	c.ByItem = make([][]SV, len(ds.ByItem))
	for d, svs := range ds.ByItem {
		c.ByItem[d] = append([]SV(nil), svs...)
	}
	return c
}

// TestSnapshotImmutable: nothing the Builder does after a Build shows in
// the Dataset it returned — not an overwrite of one of its cells, not an
// insert in front of one, not an append to any of the name tables it
// shares with the Builder. The same must hold between a Dataset and a
// Builder made from it.
func TestSnapshotImmutable(t *testing.T) {
	mutate := func(b *Builder) {
		b.AddRecords([]Record{
			{"s1", "d1", "changed"}, // overwrites a cell and appends a label to d1
			{"s2", "d2", "front"},   // s2 has the smallest id: d2's list shifts
			{"s9", "d9", "v"},       // appends a source, an item and a label
		})
		b.SetTruth("d2", "another")
		b.SetTruth("d10", "v")
	}
	b := NewBuilder()
	b.AddRecords([]Record{
		{"s2", "d1", "a"}, {"s1", "d1", "a"}, {"s3", "d1", "b"}, // s1 is inserted in front of s2
		{"s1", "d2", "x"}, {"s3", "d2", "y"},
	})
	b.SetTruth("d1", "a")
	snap := b.Build()
	before := deepCopy(snap)
	mutate(b)
	if !reflect.DeepEqual(snap, before) {
		t.Fatalf("appends to the Builder changed a Dataset it had built:\n got %+v\nwant %+v", snap, before)
	}

	later := b.Build()
	laterCopy := deepCopy(later)
	rebuilt := NewBuilderFromDataset(snap)
	mutate(rebuilt)
	if !reflect.DeepEqual(snap, before) {
		t.Fatal("appends to a Builder made from a Dataset changed that Dataset")
	}
	if !reflect.DeepEqual(later, laterCopy) {
		t.Fatal("appends to a Builder made from an earlier Dataset changed a later one")
	}
	if got := rebuilt.Build(); !reflect.DeepEqual(got, later) {
		t.Fatalf("the same appends on the original and the rebuilt Builder diverge:\n got %+v\nwant %+v", got, later)
	}
}

// TestRebuiltBuilderContinuesStream: cut a random stream anywhere,
// snapshot, carry on in a Builder made from the snapshot — the result is
// the uninterrupted Builder's, ids and all. The snapshot also goes
// through the binary codec, as it does in a recovery.
func TestRebuiltBuilderContinuesStream(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 10+rng.Intn(50))
		cut := rng.Intn(len(ops))
		whole := NewBuilder()
		for _, op := range ops[:cut] {
			op.apply(whole)
		}
		snap := whole.Build()
		resumed := NewBuilderFromDataset(snap)
		decoded := NewBuilderFromDataset(encodeRoundtrip(t, snap))
		for _, op := range ops[cut:] {
			op.apply(whole)
			op.apply(resumed)
			op.apply(decoded)
		}
		want := whole.Build()
		if got := resumed.Build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, cut at %d of %d: resumed Builder diverges:\n got %+v\nwant %+v", seed, cut, len(ops), got, want)
		}
		if got := decoded.Build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, cut at %d of %d: Builder resumed from the decoded snapshot diverges", seed, cut, len(ops))
		}
	}
}

// TestBuilderZeroValue: the doc comment's "the zero value is ready to
// use", for every entry point that used to meet a nil map.
func TestBuilderZeroValue(t *testing.T) {
	var empty Builder
	if ds := empty.Build(); !reflect.DeepEqual(ds, NewBuilder().Build()) || ds.Validate() != nil || ds.NumObservations() != 0 {
		t.Fatalf("Build on a zero Builder = %+v", ds)
	}
	var b Builder
	b.Add("s", "d", "v")
	b.SetTruth("d2", "w")
	var viaIDs Builder
	viaIDs.AddIDs(viaIDs.Source("s"), viaIDs.Item("d"), viaIDs.Value(0, "v"))
	viaIDs.SetTruthIDs(viaIDs.Item("d2"), viaIDs.Value(1, "w"))
	want := NewBuilder()
	want.Add("s", "d", "v")
	want.SetTruth("d2", "w")
	for name, got := range map[string]*Builder{"Add": &b, "AddIDs": &viaIDs} {
		if !reflect.DeepEqual(got.Build(), want.Build()) {
			t.Errorf("zero Builder filled through %s differs from NewBuilder's", name)
		}
	}
}
