package gen

import (
	"fmt"
	"math"
	"strings"
)

// The presets mirror the structural profile of the paper's four data sets
// (Table V and Section VI-A):
//
//	Book-CS    894 sources, 2,528 items; 85% of sources cover ≤1% of the
//	           books; ~5.9 conflicting values per item.
//	Book-full  3,182 sources, 147,431 items; ~1.1 conflicting values per
//	           item; heavily skewed coverage.
//	Stock-1day 55 sources, 16,000 items; 80% of sources cover over half
//	           the items; ~6.5 conflicting values per item.
//	Stock-2wk  55 sources, 160,000 items; ~5.7 conflicting values.
//
// Copier cliques are planted with the model's default selectivity 0.8 and
// deliberately include low-accuracy copiers, which is what creates the
// shared-false-value evidence copy detection keys on.

// PresetNames are the names Preset accepts, in the paper's order.
var PresetNames = []string{"book-cs", "stock-1day", "book-full", "stock-2wk"}

// Preset returns the named preset's configuration for seed: the one
// name → configuration table every command, the scenario runner and the
// experiments share.
func Preset(name string, seed int64) (Config, error) {
	switch name {
	case "book-cs":
		return BookCS(seed), nil
	case "stock-1day":
		return Stock1Day(seed), nil
	case "book-full":
		return BookFull(seed), nil
	case "stock-2wk":
		return Stock2Wk(seed), nil
	}
	return Config{}, fmt.Errorf("gen: unknown preset %q (want %s)", name, strings.Join(PresetNames, ", "))
}

// BookCS returns the Book-CS-like configuration. The accuracy band is
// calibrated so the average number of conflicting values per item lands
// near the paper's 5.9 given ~57 providers per item; false values are
// drawn from the model's full n-sized domain, keeping the data consistent
// with the Bayesian model's uniform-false-value assumption.
func BookCS(seed int64) Config {
	return Config{
		Name:                 "Book-CS",
		NumSources:           894,
		NumItems:             2528,
		NFalse:               100,
		CoverageMin:          0.2,
		CoverageMax:          0.6,
		LowCoverageFraction:  0.85,
		LowCoverageMin:       0.002,
		LowCoverageMax:       0.01,
		AccuracyMin:          0.8,
		AccuracyMax:          0.97,
		HighAccuracyFraction: 0.1,
		Groups:               bookGroups(40),
		GoldItems:            100,
		Seed:                 seed,
	}
}

// BookFull returns the Book-full-like configuration: very sparse coverage
// and high accuracy, matching the paper's ~1.1 conflicting values per item.
func BookFull(seed int64) Config {
	return Config{
		Name:                 "Book-full",
		NumSources:           3182,
		NumItems:             147431,
		NFalse:               100,
		CoverageMin:          0.005,
		CoverageMax:          0.02,
		LowCoverageFraction:  0.9,
		LowCoverageMin:       0.0002,
		LowCoverageMax:       0.001,
		AccuracyMin:          0.85,
		AccuracyMax:          0.98,
		HighAccuracyFraction: 0.15,
		Groups:               bookGroups(120),
		GoldItems:            100,
		Seed:                 seed,
	}
}

// Stock1Day returns the Stock-1day-like configuration, calibrated to the
// paper's ~6.5 conflicting values per item at ~44 providers per item.
func Stock1Day(seed int64) Config {
	return Config{
		Name:                 "Stock-1day",
		NumSources:           55,
		NumItems:             16000,
		NFalse:               100,
		CoverageMin:          0.5,
		CoverageMax:          1.0,
		LowCoverageFraction:  0.2,
		LowCoverageMin:       0.05,
		LowCoverageMax:       0.3,
		AccuracyMin:          0.7,
		AccuracyMax:          0.95,
		HighAccuracyFraction: 0.2,
		Groups:               stockGroups(),
		GoldItems:            200,
		Seed:                 seed,
	}
}

// Stock2Wk returns the Stock-2wk-like configuration.
func Stock2Wk(seed int64) Config {
	cfg := Stock1Day(seed)
	cfg.Name = "Stock-2wk"
	cfg.NumItems = 160000
	cfg.GoldItems = 200
	return cfg
}

// bookGroups plants n small copier cliques with varied copier quality:
// low-accuracy copiers make the copying easy to detect, mid-accuracy
// copiers exercise the harder cases.
func bookGroups(n int) []CopyGroup {
	groups := make([]CopyGroup, n)
	for i := range groups {
		g := CopyGroup{
			Copiers:           1 + i%3,
			Selectivity:       0.8,
			CopierAccuracy:    0.2 + 0.1*float64(i%4),
			OverlapWithOrigin: 0.9,
		}
		groups[i] = g
	}
	return groups
}

// stockGroups plants the handful of cliques that fit 55 sources.
func stockGroups() []CopyGroup {
	return []CopyGroup{
		{Copiers: 2, Selectivity: 0.8, CopierAccuracy: 0.2, OverlapWithOrigin: 0.9},
		{Copiers: 2, Selectivity: 0.8, CopierAccuracy: 0.3, OverlapWithOrigin: 0.9},
		{Copiers: 1, Selectivity: 0.9, CopierAccuracy: 0.25, OverlapWithOrigin: 0.95},
		{Copiers: 1, Selectivity: 0.7, CopierAccuracy: 0.4, OverlapWithOrigin: 0.9},
		{Copiers: 3, Selectivity: 0.8, CopierAccuracy: 0.35, OverlapWithOrigin: 0.85},
		{Copiers: 1, Selectivity: 0.8, CopierAccuracy: 0.5, OverlapWithOrigin: 0.9},
	}
}

// Scale shrinks (or grows) a configuration by factor f, keeping the
// structural skew. Items always scale; sources scale only for
// source-heavy (Book-like) configurations — the Stock data sets have just
// 55 sources, which is part of their identity, so those are kept. Copy
// groups are thinned proportionally when sources shrink. Scale(cfg, 1) is
// the identity.
func Scale(cfg Config, f float64) Config {
	if f == 1 {
		return cfg
	}
	out := cfg
	if cfg.NumSources > 200 {
		out.NumSources = max(8, int(math.Round(float64(cfg.NumSources)*f)))
	}
	out.NumItems = max(16, int(math.Round(float64(cfg.NumItems)*f)))
	// Low-coverage fractions must stay meaningful: with fewer items, a
	// 0.2% coverage would round to zero items, so floor them such that a
	// source covers at least ~2 items.
	minFrac := 2.0 / float64(out.NumItems)
	if out.LowCoverageMin < minFrac {
		out.LowCoverageMin = minFrac
	}
	if out.LowCoverageMax < out.LowCoverageMin {
		out.LowCoverageMax = out.LowCoverageMin * 2
	}
	if out.NumSources != cfg.NumSources {
		want := int(math.Round(float64(len(cfg.Groups)) * f))
		if want < 1 {
			want = 1
		}
		if want < len(cfg.Groups) {
			out.Groups = append([]CopyGroup(nil), cfg.Groups[:want]...)
		}
	}
	// Keep the gold standard size if it still fits.
	if out.GoldItems > out.NumItems {
		out.GoldItems = out.NumItems
	}
	return out
}
