package index

import (
	"copydetect/internal/bitset"
	"copydetect/internal/dataset"
)

// PairKey packs an unordered source pair (a < b) into one comparable key.
type PairKey int64

// MakePairKey builds the key for the unordered pair {a, b}.
func MakePairKey(a, b dataset.SourceID) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey(int64(a)<<32 | int64(uint32(b)))
}

// Sources unpacks the pair (a < b).
func (k PairKey) Sources() (a, b dataset.SourceID) {
	return dataset.SourceID(k >> 32), dataset.SourceID(uint32(k))
}

// PairMap maps unordered source pairs to dense int32 slots. For small
// source counts it uses a dense triangular array; beyond that it falls
// back to a hash map. The zero slot value -1 means "absent".
type PairMap struct {
	n      int32
	dense  []int32    // len n*n when dense mode; -1 = absent
	seen   bitset.Set // dense mode: the pairs present, one bit each
	sparse map[PairKey]int32
	keys   []PairKey // insertion order, slot -> key
}

// denseLimit bounds the dense representation to n^2 int32s ≈ 64 MB.
const denseLimit = 4096

// NewPairMap creates a PairMap for numSources sources.
func NewPairMap(numSources int) *PairMap {
	pm := &PairMap{n: int32(numSources)}
	if numSources <= denseLimit {
		pm.dense = make([]int32, numSources*numSources)
		pm.seen = bitset.New(numSources * numSources)
		for i := range pm.dense {
			pm.dense[i] = -1
		}
	} else {
		pm.sparse = make(map[PairKey]int32)
	}
	return pm
}

// Len returns the number of pairs inserted.
func (pm *PairMap) Len() int { return len(pm.keys) }

// Get returns the slot of pair {a, b}, or -1 if absent.
func (pm *PairMap) Get(a, b dataset.SourceID) int32 {
	if a > b {
		a, b = b, a
	}
	if pm.dense != nil {
		return pm.dense[int32(a)*pm.n+int32(b)]
	}
	if slot, ok := pm.sparse[MakePairKey(a, b)]; ok {
		return slot
	}
	return -1
}

// Row returns the slots of the pairs {a, b}, a < b, indexed by b (-1 =
// absent), so a loop over b with a fixed pays for the lookup once; nil when
// the map is sparse and the caller must use Get.
func (pm *PairMap) Row(a dataset.SourceID) []int32 {
	if pm.dense == nil {
		return nil
	}
	i := int32(a) * pm.n
	return pm.dense[i : i+pm.n]
}

// GetOrAdd returns the slot of pair {a, b}, creating a fresh slot if the
// pair is new; added reports whether the pair was inserted.
func (pm *PairMap) GetOrAdd(a, b dataset.SourceID) (slot int32, added bool) {
	if a > b {
		a, b = b, a
	}
	if pm.dense != nil {
		i := int32(a)*pm.n + int32(b)
		if s := pm.dense[i]; s >= 0 {
			return s, false
		}
		return pm.insertDense(int(i), a, b), true
	}
	k := MakePairKey(a, b)
	if s, ok := pm.sparse[k]; ok {
		return s, false
	}
	s := int32(len(pm.keys))
	pm.sparse[k] = s
	pm.keys = append(pm.keys, k)
	return s, true
}

// insertDense gives the absent pair {a, b}, a < b, at dense index i the
// next slot.
func (pm *PairMap) insertDense(i int, a, b dataset.SourceID) int32 {
	s := int32(len(pm.keys))
	pm.dense[i] = s
	pm.seen.Add(i)
	pm.keys = append(pm.keys, MakePairKey(a, b))
	return s
}

// Reset empties the map while keeping its allocations, so a per-round
// pair map can be refilled without re-clearing the dense n² array: only
// the slots of previously inserted keys are touched.
func (pm *PairMap) Reset() {
	if pm.dense != nil {
		for _, k := range pm.keys {
			a, b := k.Sources()
			pm.dense[int32(a)*pm.n+int32(b)] = -1
		}
		clear(pm.seen)
	} else {
		clear(pm.sparse)
	}
	pm.keys = pm.keys[:0]
}

// Key returns the pair key stored in a slot.
func (pm *PairMap) Key(slot int32) PairKey { return pm.keys[slot] }

// Keys returns all pair keys in slot order. The caller must not mutate it.
func (pm *PairMap) Keys() []PairKey { return pm.keys }
