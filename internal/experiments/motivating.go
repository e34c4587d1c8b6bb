package experiments

import (
	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/index"
)

// Motivating reproduces the paper's worked examples on the 10-source
// state-capitals dataset of Table I: the inverted index of Table III
// (Example 3.3), the computation counts of Examples 3.6 and 4.2, and the
// iterative convergence of Table II.
func (e *Env) Motivating() error {
	ds, accu := dataset.Motivating()
	p := bayes.Params{Alpha: 0.1, S: 0.8, N: 50}

	// Rebuild the statistical state the examples assume.
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.A = accu
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = 0.5
		}
	}
	for label, pv := range dataset.MotivatingValueProbs() {
		d, v := dataset.LookupValue(ds, label)
		st.P[d][v] = pv
	}

	e.printf("Motivating example (Tables I-III, Examples 2.1/3.3/3.6/4.2)\n\n")
	e.printf("Inverted index (paper Table III):\n%-14s %5s %6s  %s\n", "Value", "Pr", "Score", "Providers")
	str := index.NewStructure(ds)
	v := index.NewView(str)
	v.Rescore(st, p, index.ByContribution, nil)
	for _, eid := range v.Order {
		provs := ""
		for j, s := range str.Providers(eid) {
			if j > 0 {
				provs += ","
			}
			provs += ds.SourceNames[s]
		}
		tail := ""
		if v.InTail[eid] {
			tail = "   (in tail set E̅)"
		}
		d := str.Item[eid]
		e.printf("%-14s %5.2f %6.2f  %s%s\n",
			ds.ItemNames[d]+"."+ds.ValueNames[d][str.Val[eid]], v.P[eid], v.Score[eid], provs, tail)
	}

	e.printf("\nExample 3.6 — INDEX vs PAIRWISE on one round:\n")
	ires := (&core.Index{Params: p}).DetectRound(ds, st, 1)
	pres := (&core.Pairwise{Params: p}).DetectRound(ds, st, 1)
	e.printf("  PAIRWISE: %d pairs, %d computations (paper: 45 pairs, 366*)\n",
		pres.Stats.PairsConsidered, pres.Stats.Computations)
	e.printf("  INDEX:    %d pairs, %d shared values, %d computations (paper: 26, 51, 154)\n",
		ires.Stats.PairsConsidered, ires.Stats.ValuesExamined, ires.Stats.Computations)
	e.printf("  (* Table I reconstructs to 181 shared items = 362 computations;\n")
	e.printf("     the paper prints 183/366.)\n")

	e.printf("\nExample 4.2 — BOUND early termination:\n")
	bres := (&core.Bound{Params: p}).DetectRound(ds, st, 1)
	e.printf("  BOUND examined %d shared values (INDEX: %d), same decisions: %v\n",
		bres.Stats.ValuesExamined, ires.Stats.ValuesExamined,
		sameCopyingSet(bres, ires))

	e.printf("\nIterative process (paper Table II converges in 5 rounds):\n")
	out := (&fusion.TruthFinder{Params: p}).Run(ds, &core.Pairwise{Params: p})
	e.printf("  converged in %d rounds\n  final accuracies:", out.Rounds)
	for s, a := range out.State.A {
		e.printf(" %s=%.2f", ds.SourceNames[s], a)
	}
	e.printf("\n  copying pairs:")
	for _, pr := range out.Copy.CopyingPairs() {
		e.printf(" (%s,%s)", ds.SourceNames[pr.S1], ds.SourceNames[pr.S2])
	}
	e.printf("\n  decided truths:")
	for d, v := range out.Truth {
		e.printf(" %s=%s", ds.ItemNames[d], ds.ValueNames[d][v])
	}
	e.printf("\n\n")
	return nil
}

func sameCopyingSet(a, b *core.Result) bool {
	sa, sb := a.CopyingSet(), b.CopyingSet()
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}
