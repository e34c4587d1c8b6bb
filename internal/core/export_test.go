package core

import (
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
)

// ForceNest makes every scan until the end of the test run the pair sweep
// (sweep) or the entry walk (!sweep), whatever the routing rule says.
func ForceNest(t testing.TB, sweep bool) {
	forceNest = nestWalk
	if sweep {
		forceNest = nestSweep
	}
	t.Cleanup(func() { forceNest = nestByRule })
}

// RuleSweeps reports which nest the routing rule gives a scan of ds against
// st.
func RuleSweeps(ds *dataset.Dataset, st *bayes.State, p bayes.Params) bool {
	var c structCache
	v, _, l := c.round(ds, st, p, index.ByContribution, nil)
	return chooseSweep(v, l)
}
