package dataset

// SubsetItems builds a new dataset restricted to the given items (ids into
// ds, in any order, deduplicated by the caller). Sources keep their ids —
// even sources left with no observation remain, so copy-detection results
// on the subset are directly comparable to the full dataset. Value ids per
// item are preserved, so value probabilities indexed by the returned
// itemMap can be shared with the full dataset.
func SubsetItems(ds *Dataset, items []ItemID) (*Dataset, []ItemID) {
	itemMap := append([]ItemID(nil), items...)
	oldToNew := make(map[ItemID]ItemID, len(itemMap))
	for newID, oldID := range itemMap {
		oldToNew[oldID] = ItemID(newID)
	}
	sub := &Dataset{
		SourceNames: ds.SourceNames,
		ItemNames:   make([]string, len(itemMap)),
		ValueNames:  make([][]string, len(itemMap)),
		BySource:    make([][]Obs, ds.NumSources()),
		ByItem:      make([][]SV, len(itemMap)),
	}
	for newID, oldID := range itemMap {
		sub.ItemNames[newID] = ds.ItemNames[oldID]
		sub.ValueNames[newID] = ds.ValueNames[oldID]
		svs := append([]SV(nil), ds.ByItem[oldID]...)
		sub.ByItem[newID] = svs
	}
	for s := range ds.BySource {
		var obs []Obs
		for _, o := range ds.BySource[s] {
			if newID, ok := oldToNew[o.Item]; ok {
				obs = append(obs, Obs{Item: newID, Value: o.Value})
			}
		}
		// BySource must be sorted by (new) item id; the new ids follow the
		// order of items, which need not be the source's original order.
		sortObs(obs)
		sub.BySource[s] = obs
	}
	if ds.Truth != nil {
		sub.Truth = make([]ValueID, len(itemMap))
		for newID, oldID := range itemMap {
			sub.Truth[newID] = ds.Truth[oldID]
		}
	}
	return sub, itemMap
}

// sortObs sorts observations by item id (insertion sort for short slices,
// falling back to a simple quicksort via the stdlib would pull in sort;
// slices here can be long, so use a shell sort that needs no allocation).
func sortObs(obs []Obs) {
	for gap := len(obs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(obs); i++ {
			o := obs[i]
			j := i
			for ; j >= gap && obs[j-gap].Item > o.Item; j -= gap {
				obs[j] = obs[j-gap]
			}
			obs[j] = o
		}
	}
}
