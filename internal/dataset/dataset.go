// Package dataset defines the structured-data model used throughout the
// copy-detection library: data sources, data items, the values each source
// provides for each item, and an optional gold standard of true values.
//
// The model follows Section II of "Scaling up Copy Detection" (Li et al.,
// ICDE 2015): a domain D of data items, a set S of sources, each source
// providing at most one value per data item. Schema mapping and entity
// resolution are assumed done, so items and values are already aligned
// across sources; values are interned per item as dense integer ids.
//
//copydetect:deterministic
package dataset

import (
	"fmt"
	"sort"
)

// SourceID identifies a data source; ids are dense in [0, NumSources).
type SourceID = int32

// ItemID identifies a data item; ids are dense in [0, NumItems).
type ItemID = int32

// ValueID identifies a value within one data item's domain; ids are dense
// per item in [0, NumValues(item)). The same ValueID in different items is
// unrelated.
type ValueID = int32

// NoValue marks the absence of a value (missing cell, unknown truth).
const NoValue ValueID = -1

// Obs is one observation from the perspective of a source: the source
// provides value Value on data item Item.
type Obs struct {
	Item  ItemID
	Value ValueID
}

// SV is one observation from the perspective of a data item: source Source
// provides value Value on it.
type SV struct {
	Source SourceID
	Value  ValueID
}

// Dataset is an immutable collection of observations over sources × items.
// Build one with a Builder; all slices are sorted as documented and must
// not be mutated afterwards: the name tables are shared with the Builder
// that built it, with later snapshots and with Builders made from it.
// Nothing writes a built Dataset, so its pointer is its identity: a cache
// that holds the pointer keeps the dataset alive, and no other dataset can
// take its address while it does.
type Dataset struct {
	// SourceNames[s] is the display name of source s.
	SourceNames []string
	// ItemNames[d] is the display name of data item d.
	ItemNames []string
	// ValueNames[d][v] is the display label of value v of item d.
	ValueNames [][]string

	// BySource[s] lists the observations of source s, sorted by Item.
	BySource [][]Obs
	// ByItem[d] lists the observations on item d, sorted by Source.
	ByItem [][]SV

	// Truth[d] is the gold-standard true value of item d, or NoValue when
	// unknown. May be nil when no gold standard exists.
	Truth []ValueID
}

// NumSources returns |S|.
func (ds *Dataset) NumSources() int { return len(ds.SourceNames) }

// NumItems returns |D|.
func (ds *Dataset) NumItems() int { return len(ds.ItemNames) }

// NumValues returns the number of distinct values observed on item d.
func (ds *Dataset) NumValues(d ItemID) int { return len(ds.ValueNames[d]) }

// Coverage returns |D̄(S)|, the number of items source s provides.
func (ds *Dataset) Coverage(s SourceID) int { return len(ds.BySource[s]) }

// NumObservations returns the total number of non-empty cells.
func (ds *Dataset) NumObservations() int {
	n := 0
	for _, obs := range ds.BySource {
		n += len(obs)
	}
	return n
}

// ValueOf returns the value source s provides on item d, or NoValue if s
// does not cover d. It runs a binary search over the source's observations.
func (ds *Dataset) ValueOf(s SourceID, d ItemID) ValueID {
	obs := ds.BySource[s]
	i := sort.Search(len(obs), func(i int) bool { return obs[i].Item >= d })
	if i < len(obs) && obs[i].Item == d {
		return obs[i].Value
	}
	return NoValue
}

// SharedItems returns l(S1,S2): the number of items covered by both
// sources. It merges the two sorted observation lists.
func (ds *Dataset) SharedItems(s1, s2 SourceID) int {
	a, b := ds.BySource[s1], ds.BySource[s2]
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Item < b[j].Item:
			i++
		case a[i].Item > b[j].Item:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// SharedValues returns n(S1,S2): the number of items on which the two
// sources provide the same value.
func (ds *Dataset) SharedValues(s1, s2 SourceID) int {
	a, b := ds.BySource[s1], ds.BySource[s2]
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Item < b[j].Item:
			i++
		case a[i].Item > b[j].Item:
			j++
		default:
			if a[i].Value == b[j].Value {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// Validate checks internal consistency of the dataset and returns a
// descriptive error on the first violation found. It is intended for tests
// and for data loaded from external files. It is linear in the number of
// observations: BySource is checked on its own, then ByItem is walked in
// item order with one cursor per source, which must step through that
// source's list cell for cell — the two columns hold the same cells
// exactly when every cursor ends at the end of its list.
func (ds *Dataset) Validate() error {
	if len(ds.BySource) != len(ds.SourceNames) {
		return fmt.Errorf("dataset: BySource has %d sources, SourceNames has %d", len(ds.BySource), len(ds.SourceNames))
	}
	if len(ds.ByItem) != len(ds.ItemNames) {
		return fmt.Errorf("dataset: ByItem has %d items, ItemNames has %d", len(ds.ByItem), len(ds.ItemNames))
	}
	if len(ds.ValueNames) != len(ds.ItemNames) {
		return fmt.Errorf("dataset: ValueNames has %d items, ItemNames has %d", len(ds.ValueNames), len(ds.ItemNames))
	}
	if ds.Truth != nil && len(ds.Truth) != len(ds.ItemNames) {
		return fmt.Errorf("dataset: Truth has %d items, ItemNames has %d", len(ds.Truth), len(ds.ItemNames))
	}
	for s, obs := range ds.BySource {
		for i, o := range obs {
			if i > 0 && obs[i-1].Item >= o.Item {
				return fmt.Errorf("dataset: source %d observations not strictly sorted by item at %d", s, i)
			}
			if o.Item < 0 || int(o.Item) >= len(ds.ItemNames) {
				return fmt.Errorf("dataset: source %d references item %d out of range", s, o.Item)
			}
			if o.Value < 0 || int(o.Value) >= len(ds.ValueNames[o.Item]) {
				return fmt.Errorf("dataset: source %d item %d references value %d out of range", s, o.Item, o.Value)
			}
		}
	}
	next := make([]int, len(ds.BySource)) // per source: its first cell ByItem has not reached
	for d, svs := range ds.ByItem {
		for i, sv := range svs {
			if i > 0 && svs[i-1].Source >= sv.Source {
				return fmt.Errorf("dataset: item %d observations not strictly sorted by source at %d", d, i)
			}
			if sv.Source < 0 || int(sv.Source) >= len(ds.SourceNames) {
				return fmt.Errorf("dataset: item %d references source %d out of range", d, sv.Source)
			}
			obs, at := ds.BySource[sv.Source], next[sv.Source]
			if at == len(obs) || obs[at] != (Obs{Item: ItemID(d), Value: sv.Value}) {
				return fmt.Errorf("dataset: item %d source %d value %d is in ByItem but is not the source's next cell in BySource", d, sv.Source, sv.Value)
			}
			next[sv.Source] = at + 1
		}
	}
	for s, obs := range ds.BySource {
		if next[s] != len(obs) {
			return fmt.Errorf("dataset: source %d item %d is in BySource but not in ByItem", s, obs[next[s]].Item)
		}
	}
	if ds.Truth != nil {
		for d, t := range ds.Truth {
			if t != NoValue && (t < 0 || int(t) >= len(ds.ValueNames[d])) {
				return fmt.Errorf("dataset: truth of item %d references value %d out of range", d, t)
			}
		}
	}
	return nil
}
