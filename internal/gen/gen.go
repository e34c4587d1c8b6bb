// Package gen builds synthetic workloads that stand in for the paper's
// four crawled data sets (Table V): the AbeBooks crawls Book-CS and
// Book-full, and the Deep-Web stock crawls Stock-1day and Stock-2wk. The
// originals are not redistributable, so the generator reproduces their
// structural statistics — source counts, item counts, coverage skew,
// conflicting values per item — and plants copier cliques with a known
// selectivity, which additionally yields an exact gold standard of copying
// pairs (the paper can only compare against PAIRWISE). All randomness is
// seeded, so every dataset is reproducible bit for bit.
package gen

import (
	"fmt"
	"math/rand"

	"copydetect/internal/dataset"
)

// CopyGroup plants one copier clique: one independently generated origin
// source and Copiers sources that copy from it.
type CopyGroup struct {
	// Copiers is the number of copying sources in the group.
	Copiers int
	// Selectivity is the probability a copier copies the origin's value on
	// a covered item (the model's s).
	Selectivity float64
	// CopierAccuracy is the accuracy of a copier on the items where it
	// does not copy.
	CopierAccuracy float64
	// OverlapWithOrigin is the fraction of a copier's coverage drawn from
	// the origin's covered items (the rest is random).
	OverlapWithOrigin float64
	// MinCoverageItems floors the coverage of the group's sources so the
	// clique shares enough items to be statistically detectable even when
	// the surrounding dataset is scaled down. Zero selects 12.
	MinCoverageItems int
}

func (g CopyGroup) minCoverage() int {
	if g.MinCoverageItems == 0 {
		return 12
	}
	return g.MinCoverageItems
}

// Config parameterizes a synthetic workload.
type Config struct {
	Name       string
	NumSources int
	NumItems   int
	// NFalse is the number of false values in each item's domain.
	NFalse int
	// CoverageMin/CoverageMax bound per-source coverage fractions for
	// high-coverage sources.
	CoverageMin, CoverageMax float64
	// LowCoverageFraction of sources instead get a coverage fraction in
	// [LowCoverageMin, LowCoverageMax] — the Book-like skew where 85% of
	// sources cover at most 1% of the items.
	LowCoverageFraction            float64
	LowCoverageMin, LowCoverageMax float64
	// AccuracyMin/AccuracyMax bound independent sources' accuracies.
	AccuracyMin, AccuracyMax float64
	// HighAccuracyFraction of sources are authoritative with accuracy in
	// [0.9, 0.99].
	HighAccuracyFraction float64
	// Groups plants copier cliques.
	Groups []CopyGroup
	// GoldItems caps how many items keep a recorded gold truth (the paper
	// verifies 100–200 items); 0 keeps all.
	GoldItems int
	// Seed drives all randomness.
	Seed int64
}

// Planted records the ground truth of the generated copying relationships.
type Planted struct {
	// Pairs maps packed (copier, origin) source pairs (smaller id first)
	// to true.
	Pairs map[int64]bool
	// Closure additionally contains every copier–copier pair within a
	// clique: sources that copy the same origin share its values, so a
	// detector that flags them as dependent is not wrong, merely
	// transitive. Quality scoring uses Pairs for recall (every direct
	// copy must be found) and Closure for precision (an intra-clique
	// pair is not a false positive).
	Closure map[int64]bool
	// TrueAccuracy[s] is the accuracy parameter each source was generated
	// with.
	TrueAccuracy []float64
}

// PairPlanted reports whether the unordered pair {a, b} was planted.
func (pl *Planted) PairPlanted(a, b dataset.SourceID) bool {
	if a > b {
		a, b = b, a
	}
	return pl.Pairs[int64(a)<<32|int64(uint32(b))]
}

// PairInClique reports whether a and b are members of the same planted
// clique (the closure of PairPlanted over shared origins).
func (pl *Planted) PairInClique(a, b dataset.SourceID) bool {
	if a > b {
		a, b = b, a
	}
	return pl.Closure[int64(a)<<32|int64(uint32(b))]
}

// Generate materializes the workload.
func Generate(cfg Config) (*dataset.Dataset, *Planted, error) {
	if cfg.NumSources < 2 || cfg.NumItems < 1 {
		return nil, nil, fmt.Errorf("gen: need at least 2 sources and 1 item, got %d/%d", cfg.NumSources, cfg.NumItems)
	}
	if cfg.NFalse < 2 {
		return nil, nil, fmt.Errorf("gen: NFalse must be >= 2, got %d", cfg.NFalse)
	}
	groupSources := 0
	for _, g := range cfg.Groups {
		groupSources += 1 + g.Copiers
	}
	if groupSources > cfg.NumSources {
		return nil, nil, fmt.Errorf("gen: copy groups need %d sources, only %d available", groupSources, cfg.NumSources)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ni, ns := cfg.NumItems, cfg.NumSources
	pl := &Planted{
		Pairs:        make(map[int64]bool),
		Closure:      make(map[int64]bool),
		TrueAccuracy: make([]float64, ns),
	}

	// Truth: value 0 of every item is the true value; false values get ids
	// on demand. Value labels: "t" and "f1".."fN".
	values := make([][]dataset.ValueID, ns) // values[s][d-index into coverage]? use full row per source
	coverage := make([][]dataset.ItemID, ns)

	// Assign accuracies and coverage fractions.
	accuracy := make([]float64, ns)
	covFrac := make([]float64, ns)
	for s := 0; s < ns; s++ {
		if rng.Float64() < cfg.HighAccuracyFraction {
			accuracy[s] = 0.9 + 0.09*rng.Float64()
		} else {
			accuracy[s] = cfg.AccuracyMin + (cfg.AccuracyMax-cfg.AccuracyMin)*rng.Float64()
		}
		if rng.Float64() < cfg.LowCoverageFraction {
			covFrac[s] = cfg.LowCoverageMin + (cfg.LowCoverageMax-cfg.LowCoverageMin)*rng.Float64()
		} else {
			covFrac[s] = cfg.CoverageMin + (cfg.CoverageMax-cfg.CoverageMin)*rng.Float64()
		}
	}

	// Lay out copy groups over the first sources: origin then its copiers.
	type roleT struct {
		origin dataset.SourceID // < 0 for independent sources
		sel    float64
	}
	roles := make([]roleT, ns)
	for s := range roles {
		roles[s].origin = -1
	}
	next := 0
	for _, g := range cfg.Groups {
		origin := next
		next++
		// Floor the clique's coverage so it stays detectable at any scale.
		minFrac := float64(g.minCoverage()) / float64(ni)
		if covFrac[origin] < minFrac {
			covFrac[origin] = minFrac
		}
		members := []dataset.SourceID{dataset.SourceID(origin)}
		for c := 0; c < g.Copiers; c++ {
			s := next
			next++
			roles[s].origin = dataset.SourceID(origin)
			roles[s].sel = g.Selectivity
			accuracy[s] = g.CopierAccuracy
			if covFrac[s] < minFrac {
				covFrac[s] = minFrac
			}
			a, b := dataset.SourceID(s), dataset.SourceID(origin)
			if a > b {
				a, b = b, a
			}
			pl.Pairs[int64(a)<<32|int64(uint32(b))] = true
			members = append(members, dataset.SourceID(s))
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				pl.Closure[int64(a)<<32|int64(uint32(b))] = true
			}
		}
	}
	copy(pl.TrueAccuracy, accuracy)

	// Generate independent sources (and origins) first.
	sampleCoverage := func(frac float64) []dataset.ItemID {
		want := int(frac * float64(ni))
		if want < 1 {
			want = 1
		}
		if want > ni {
			want = ni
		}
		perm := rng.Perm(ni)
		items := make([]dataset.ItemID, want)
		for i := 0; i < want; i++ {
			items[i] = dataset.ItemID(perm[i])
		}
		return items
	}
	drawValue := func(acc float64) dataset.ValueID {
		if rng.Float64() < acc {
			return 0 // true value
		}
		return dataset.ValueID(1 + rng.Intn(cfg.NFalse))
	}
	for s := 0; s < ns; s++ {
		if roles[s].origin >= 0 {
			continue
		}
		coverage[s] = sampleCoverage(covFrac[s])
		values[s] = make([]dataset.ValueID, len(coverage[s]))
		for i := range coverage[s] {
			values[s][i] = drawValue(accuracy[s])
		}
	}

	// Generate copiers against their origins.
	gi := 0
	for _, g := range cfg.Groups {
		origin := gi
		gi++
		origCov := coverage[origin]
		origVal := map[dataset.ItemID]dataset.ValueID{}
		for i, d := range origCov {
			origVal[d] = values[origin][i]
		}
		for c := 0; c < g.Copiers; c++ {
			s := gi
			gi++
			want := int(covFrac[s] * float64(ni))
			if want < 1 {
				want = 1
			}
			fromOrigin := int(g.OverlapWithOrigin * float64(want))
			if fromOrigin > len(origCov) {
				fromOrigin = len(origCov)
			}
			seen := make(map[dataset.ItemID]bool, want)
			var cov []dataset.ItemID
			operm := rng.Perm(len(origCov))
			for i := 0; i < fromOrigin; i++ {
				d := origCov[operm[i]]
				cov = append(cov, d)
				seen[d] = true
			}
			for len(cov) < want {
				d := dataset.ItemID(rng.Intn(ni))
				if !seen[d] {
					seen[d] = true
					cov = append(cov, d)
				}
			}
			coverage[s] = cov
			values[s] = make([]dataset.ValueID, len(cov))
			for i, d := range cov {
				if ov, ok := origVal[d]; ok && rng.Float64() < roles[s].sel {
					values[s][i] = ov // copied
				} else {
					values[s][i] = drawValue(accuracy[s])
				}
			}
		}
	}

	ds := assemble(cfg, coverage, values, rng)
	return ds, pl, nil
}

// assemble converts the raw coverage/value matrices into a Dataset with
// interned labels, dense per-item value ids, and the gold standard.
func assemble(cfg Config, coverage [][]dataset.ItemID, values [][]dataset.ValueID, rng *rand.Rand) *dataset.Dataset {
	ni, ns := cfg.NumItems, cfg.NumSources
	ds := &dataset.Dataset{
		SourceNames: make([]string, ns),
		ItemNames:   make([]string, ni),
		ValueNames:  make([][]string, ni),
		BySource:    make([][]dataset.Obs, ns),
		ByItem:      make([][]dataset.SV, ni),
		Truth:       make([]dataset.ValueID, ni),
	}
	for s := 0; s < ns; s++ {
		ds.SourceNames[s] = fmt.Sprintf("S%04d", s)
	}
	// Remap the generator's global value ids (0 = truth, 1..N = false) to
	// dense per-item ids in observation order. The true value is
	// pre-registered as value 0 of every item even when no source provides
	// it, so it is part of the item's domain and fusion can (fail to) find
	// it — exactly like a verified gold value nobody reports.
	remap := make([]map[dataset.ValueID]dataset.ValueID, ni)
	for d := 0; d < ni; d++ {
		ds.ItemNames[d] = fmt.Sprintf("D%06d", d)
		ds.Truth[d] = 0
		ds.ValueNames[d] = []string{"t"}
		remap[d] = map[dataset.ValueID]dataset.ValueID{0: 0}
	}
	valueLabel := func(v dataset.ValueID) string {
		if v == 0 {
			return "t"
		}
		return fmt.Sprintf("f%d", v)
	}
	for s := 0; s < ns; s++ {
		for i, d := range coverage[s] {
			gv := values[s][i]
			dv, ok := remap[d][gv]
			if !ok {
				dv = dataset.ValueID(len(ds.ValueNames[d]))
				remap[d][gv] = dv
				ds.ValueNames[d] = append(ds.ValueNames[d], valueLabel(gv))
			}
			ds.BySource[s] = append(ds.BySource[s], dataset.Obs{Item: d, Value: dv})
			ds.ByItem[d] = append(ds.ByItem[d], dataset.SV{Source: dataset.SourceID(s), Value: dv})
		}
	}
	for s := range ds.BySource {
		obs := ds.BySource[s]
		for i := 1; i < len(obs); i++ {
			o := obs[i]
			j := i
			for ; j > 0 && obs[j-1].Item > o.Item; j-- {
				obs[j] = obs[j-1]
			}
			obs[j] = o
		}
	}
	// ByItem is already in source order because sources were emitted in
	// increasing id order.

	// Optionally keep only a sampled gold standard, like the paper's
	// 100–200 verified items.
	if cfg.GoldItems > 0 && cfg.GoldItems < ni {
		keep := make(map[int]bool, cfg.GoldItems)
		for _, d := range rng.Perm(ni)[:cfg.GoldItems] {
			keep[d] = true
		}
		for d := range ds.Truth {
			if !keep[d] {
				ds.Truth[d] = dataset.NoValue
			}
		}
	}
	return ds
}
