package index

import (
	"math"
	"math/rand"
	"slices"

	"copydetect/internal/bayes"
	"copydetect/internal/bitset"
	"copydetect/internal/dataset"
)

// The index is held as a structure of arrays, split by what changes
// across rounds of the iterative process and what does not — the layout
// the accumulation kernel (internal/core/scan.go) reads:
//
//   - Structure: the entry universe — (item, value) per entry, provider
//     lists in CSR layout, and optional per-source bitsets over items and
//     entries for word-parallel overlap counting. Depends only on the
//     observations; built once per dataset generation and cached.
//   - View: the per-round arrays — P and Score per entry, the scan
//     order permutation, the tail set and the MaxRemaining maxima.
//     Rescore refills them in place, so steady-state rounds allocate
//     nothing here.
//
// Entry ids (eids) are stable: item-major, values ascending within an
// item, so a frozen View (INCREMENTAL) can index per-entry state by eid
// forever.

// Structure is the round-invariant part of the inverted index in SoA
// layout. All slices are indexed by entry id unless noted.
type Structure struct {
	// Item and Val identify entry e as value Val[e] of item Item[e].
	Item []dataset.ItemID
	Val  []dataset.ValueID
	// Prov[ProvOff[e]:ProvOff[e+1]] lists entry e's providers, sorted by
	// source id (CSR layout: one shared backing array, no per-entry
	// allocations).
	ProvOff []int32
	Prov    []dataset.SourceID

	// ItemBits[s] marks the items source s covers; EntryBits[s] marks the
	// entries (item, value) source s provides. Both are nil when the
	// memory guard trips (see bitsetMemLimit); callers must fall back to
	// the sorted-list merges then. The two sets answer the kernel's
	// overlap questions in one AND+popcount per 64 elements:
	//
	//	l(S1,S2)  = AndCount(ItemBits[s1], ItemBits[s2])   shared items
	//	n0(S1,S2) = AndCount(EntryBits[s1], EntryBits[s2]) shared values
	ItemBits  []bitset.Set
	EntryBits []bitset.Set

	// MaxProviders is the largest provider-list length, for scratch sizing.
	MaxProviders int

	numSources int
	numItems   int
}

// bitsetMemLimit caps the total bitset footprint at 64 MB; beyond it
// Structure leaves ItemBits/EntryBits nil and callers use the sorted-list
// merges. It stands in for a density rule: counting shared items costs
// pairs·⌈items/64⌉ word-ANDs off the bitsets and Σ_D C(providers(D), 2)
// steps off the lists, and past the guard the sparse side wins by far —
// at the generator's paper-size Book-full (141 785 entries, 115 MB of
// bitsets) SharedItemCountsBits takes 1.5–1.7 s against the merge's
// 0.04 s, while on Stock shapes, well inside it, the merge costs 2–3 ms
// more a run (DESIGN.md, "Why both twins are still here").
const bitsetMemLimit = 64 << 20

// NewStructure enumerates the entry universe of ds — every value provided
// by at least two sources, item-major, values ascending — into SoA tables.
func NewStructure(ds *dataset.Dataset) *Structure {
	s := &Structure{numSources: ds.NumSources(), numItems: ds.NumItems()}
	// Count entries and providers first so every slice is exact-sized.
	numEntries, numProv := 0, 0
	var counts []int32
	for d := range ds.ByItem {
		svs := ds.ByItem[d]
		if len(svs) < 2 {
			continue
		}
		nv := ds.NumValues(dataset.ItemID(d))
		if cap(counts) < nv {
			counts = make([]int32, nv*2)
		}
		counts = counts[:nv]
		clear(counts)
		for _, sv := range svs {
			counts[sv.Value]++
		}
		for _, c := range counts {
			if c >= 2 {
				numEntries++
				numProv += int(c)
			}
		}
	}
	s.Item = make([]dataset.ItemID, 0, numEntries)
	s.Val = make([]dataset.ValueID, 0, numEntries)
	s.ProvOff = make([]int32, 1, numEntries+1)
	s.Prov = make([]dataset.SourceID, 0, numProv)

	var slot []int32
	for d := range ds.ByItem {
		svs := ds.ByItem[d]
		if len(svs) < 2 {
			continue
		}
		nv := ds.NumValues(dataset.ItemID(d))
		if cap(counts) < nv {
			counts = make([]int32, nv*2)
		}
		if cap(slot) < nv {
			slot = make([]int32, nv*2)
		}
		counts, slot = counts[:nv], slot[:nv]
		clear(counts)
		for _, sv := range svs {
			counts[sv.Value]++
		}
		first := len(s.Item)
		for v := 0; v < nv; v++ {
			if counts[v] < 2 {
				slot[v] = -1
				continue
			}
			slot[v] = int32(len(s.Item))
			s.Item = append(s.Item, dataset.ItemID(d))
			s.Val = append(s.Val, dataset.ValueID(v))
		}
		if first == len(s.Item) {
			continue
		}
		// Reserve each new entry's CSR range, then fill provider lists in
		// ByItem order (ascending source id).
		for i := first; i < len(s.Item); i++ {
			n := counts[s.Val[i]]
			s.ProvOff = append(s.ProvOff, s.ProvOff[len(s.ProvOff)-1]+n)
			if int(n) > s.MaxProviders {
				s.MaxProviders = int(n)
			}
		}
		s.Prov = s.Prov[:s.ProvOff[len(s.ProvOff)-1]]
		fill := make([]int32, len(s.Item)-first)
		for _, sv := range svs {
			if i := slot[sv.Value]; i >= 0 {
				s.Prov[s.ProvOff[i]+fill[i-int32(first)]] = sv.Source
				fill[i-int32(first)]++
			}
		}
	}
	s.buildBitsets(ds)
	return s
}

// buildBitsets materializes the per-source item and entry bitsets unless
// the memory guard trips.
func (s *Structure) buildBitsets(ds *dataset.Dataset) {
	n := s.NumEntries()
	words := s.numSources * (bitset.Words(s.numItems) + bitset.Words(n))
	if words*8 > bitsetMemLimit || s.numSources == 0 {
		return
	}
	itemWords, entryWords := bitset.Words(s.numItems), bitset.Words(n)
	itemBacking := make(bitset.Set, s.numSources*itemWords)
	entryBacking := make(bitset.Set, s.numSources*entryWords)
	s.ItemBits = make([]bitset.Set, s.numSources)
	s.EntryBits = make([]bitset.Set, s.numSources)
	for src := 0; src < s.numSources; src++ {
		s.ItemBits[src] = itemBacking[src*itemWords : (src+1)*itemWords]
		s.EntryBits[src] = entryBacking[src*entryWords : (src+1)*entryWords]
	}
	for src := range ds.BySource {
		for _, o := range ds.BySource[src] {
			s.ItemBits[src].Add(int(o.Item))
		}
	}
	for e := 0; e < n; e++ {
		for _, src := range s.Providers(int32(e)) {
			s.EntryBits[src].Add(e)
		}
	}
}

// NumEntries returns the size of the entry universe.
func (s *Structure) NumEntries() int { return len(s.Item) }

// Providers returns entry e's provider list (sorted by source id). The
// caller must not mutate it.
func (s *Structure) Providers(e int32) []dataset.SourceID {
	return s.Prov[s.ProvOff[e]:s.ProvOff[e+1]]
}

// View is the per-round scored face of a Structure. P, Score and
// InTail are indexed by entry id; Order maps scan position to entry id;
// MaxRemaining is indexed by scan position (MaxRemaining[i] bounds the
// score of every entry at positions >= i, MaxRemaining[n] == 0). Rescore
// refills everything in place, so a reused View allocates only on first
// use.
type View struct {
	S            *Structure
	P, Score     []float64
	InTail       []bool
	Order        []int32
	MaxRemaining []float64
	TailScoreSum float64

	accs    []float64  // provider-accuracy scratch for entry scoring
	byScore []scoreKey // entries by decreasing score, ties by ascending id
	sortBuf []scoreKey // the radix sort's other buffer
}

// scoreKey is one entry of Rescore's sort: its id and its score packed
// into a key whose unsigned order is decreasing score.
type scoreKey struct {
	key uint64
	id  int32
}

// descKey maps a score to a key that sorts decreasing scores first: the
// IEEE bits made order-preserving (sign bit flipped for a positive score,
// every bit for a negative one), then complemented. Adding zero first
// turns −0 into +0, which the float comparison ties with it.
func descKey(score float64) uint64 {
	b := math.Float64bits(score + 0)
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
}

// sortByScore sorts v.byScore, filled in ascending id order, by key: a
// least-significant-byte-first radix sort, whose passes are stable, so
// equal scores stay in ascending id order. A byte that is the same in
// every key costs no pass.
func (v *View) sortByScore() {
	keys, buf := v.byScore, v.sortBuf
	if len(keys) == 0 {
		return
	}
	var counts [8][256]int32
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k.key>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		if int(c[byte(keys[0].key>>(8*b))]) == len(keys) {
			continue
		}
		var off [256]int32
		sum := int32(0)
		for d, n := range c {
			off[d] = sum
			sum += n
		}
		for _, k := range keys {
			d := byte(k.key >> (8 * b))
			buf[off[d]] = k
			off[d]++
		}
		keys, buf = buf, keys
	}
	v.byScore, v.sortBuf = keys, buf
}

// NewView allocates a View sized for s.
func NewView(s *Structure) *View {
	n := s.NumEntries()
	return &View{
		S:            s,
		P:            make([]float64, n),
		Score:        make([]float64, n),
		InTail:       make([]bool, n),
		Order:        make([]int32, n),
		MaxRemaining: make([]float64, n+1),
		accs:         make([]float64, 0, max(s.MaxProviders, 2)),
		byScore:      make([]scoreKey, n),
		sortBuf:      make([]scoreKey, n),
	}
}

// Rescore recomputes the per-round arrays against st: entry probabilities
// and contribution scores, the scan order, the tail set E̅ and the
// MaxRemaining maxima. rng is consulted only for Order Random. No
// allocations in steady state.
//
// One sort serves the order and the tail: entries by decreasing score,
// ties by ascending id. Under ByContribution that is the scan order; read
// from the end, one tie group at a time and each group forward, it is the
// tail's order, increasing score with ties by ascending id.
func (v *View) Rescore(st *bayes.State, p bayes.Params, ord Order, rng *rand.Rand) {
	s := v.S
	n := s.NumEntries()
	for e := 0; e < n; e++ {
		provs := s.Providers(int32(e))
		accs := v.accs[:len(provs)]
		for i, src := range provs {
			accs[i] = st.A[src]
		}
		v.P[e] = st.P[s.Item[e]][s.Val[e]]
		v.Score[e] = p.MaxEntryScore(v.P[e], accs)
		v.byScore[e] = scoreKey{descKey(v.Score[e]), int32(e)}
	}
	v.sortByScore()
	for i := range v.Order {
		v.Order[i] = int32(i)
	}
	switch ord {
	case ByContribution:
		for i, k := range v.byScore {
			v.Order[i] = k.id
		}
	case ByProvider:
		slices.SortStableFunc(v.Order, func(a, b int32) int {
			return int(s.ProvOff[a+1]-s.ProvOff[a]) - int(s.ProvOff[b+1]-s.ProvOff[b])
		})
	case Random:
		rng.Shuffle(n, func(i, j int) { v.Order[i], v.Order[j] = v.Order[j], v.Order[i] })
	}
	v.MaxRemaining[n] = 0
	for i := n - 1; i >= 0; i-- {
		v.MaxRemaining[i] = math.Max(v.MaxRemaining[i+1], v.Score[v.Order[i]])
	}
	// Tail set: lowest scores first while the sum stays below θind. Ties
	// break by entry id, which keeps the set deterministic (any tie
	// resolution is equally sound, since the pruning argument only needs
	// TailScoreSum < θind).
	clear(v.InTail)
	limit := p.ThetaInd()
	sum := 0.0
tail:
	for hi := n; hi > 0; {
		lo := hi - 1
		for lo > 0 && v.byScore[lo-1].key == v.byScore[hi-1].key {
			lo--
		}
		for _, k := range v.byScore[lo:hi] {
			sc := v.Score[k.id]
			if sum+sc >= limit {
				break tail
			}
			sum += sc
			v.InTail[k.id] = true
		}
		hi = lo
	}
	v.TailScoreSum = sum
}

// CandidatePairsInto registers every unordered source pair co-occurring
// in an entry outside the tail set E̅ into pm, resetting it first. Only
// such pairs can accumulate enough evidence for copying (Section III);
// everything else is pruned without per-pair state. Insertion follows
// scan order, which fixes the pair slots and therefore the order of
// Result.Pairs. limit is an upper bound on the pairs that exist (the
// all-pairs count): the walk stops once that many are registered, since
// the remaining entries can only repeat them — on dense shapes after a
// handful of entries, with the slots handed out exactly as by a full walk.
// Allocation-free on a warm PairMap.
func CandidatePairsInto(v *View, pm *PairMap, limit int) {
	pm.Reset()
	for _, e := range v.Order {
		if !v.InTail[e] && addPairs(v.S.Providers(e), pm, limit) {
			return
		}
	}
}

// PairUniverseInto registers every co-occurring source pair into all,
// resetting it first — the universe the cross-round structural cache
// counts shared items for. A pair co-occurs outside the view's tail set or
// inside it, so the universe is cand, the candidate pairs CandidatePairsInto
// collected from v, in their slot order, followed by the pairs of v's tail
// entries; the tail walk stops once all n(n−1)/2 pairs exist. cand must
// hold every candidate pair: CandidatePairsInto's limit at least n(n−1)/2.
func PairUniverseInto(v *View, cand, all *PairMap) {
	all.Reset()
	for _, k := range cand.Keys() {
		all.GetOrAdd(k.Sources())
	}
	limit := v.S.numSources * (v.S.numSources - 1) / 2
	if all.Len() >= limit {
		return
	}
	for e, tail := range v.InTail {
		if tail && addPairs(v.S.Providers(int32(e)), all, limit) {
			return
		}
	}
}

// addPairs registers every pair of one provider list and reports whether
// pm now holds limit pairs. A walk meets most pairs many times, so on a
// dense map a pair is tested against the map's bitset first: its n² bits
// stay in cache where the n² slots do not.
func addPairs(provs []dataset.SourceID, pm *PairMap, limit int) bool {
	for x, a := range provs {
		if pm.dense == nil {
			for _, b := range provs[x+1:] {
				if _, added := pm.GetOrAdd(a, b); added && pm.Len() >= limit {
					return true
				}
			}
			continue
		}
		row := int(a) * int(pm.n)
		for _, b := range provs[x+1:] {
			if i := row + int(b); !pm.seen.Has(i) {
				pm.insertDense(i, a, b)
				if pm.Len() >= limit {
					return true
				}
			}
		}
	}
	return false
}

// SharedItemCountsBits computes l(S1,S2) for every pair in pm via the
// per-source item bitsets: one AND+popcount sweep per pair instead of a
// sorted-list merge. Requires s.ItemBits (the caller falls back to
// SharedItemCounts when the memory guard disabled bitsets). counts must
// have length pm.Len().
func SharedItemCountsBits(s *Structure, pm *PairMap, counts []int32) {
	for slot, key := range pm.Keys() {
		s1, s2 := key.Sources()
		counts[slot] = int32(bitset.AndCount(s.ItemBits[s1], s.ItemBits[s2]))
	}
}
