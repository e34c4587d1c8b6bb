// The truth-finding step's half of the determinism guarantee: any worker
// count gives the sequential result bit for bit, and the regrouped
// ValueProbs gives what the per-value implementation it replaced gave,
// which survives below as the reference. Run with -race to also certify
// that the item and source blocks write disjoint memory.
package fusion

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// refValueProbs is ValueProbs as it stood before the regrouping, moved
// here verbatim: it rescans an item's observations once per value and
// ranks each value's providers on their own.
func refValueProbs(ds *dataset.Dataset, st *bayes.State, p bayes.Params, g *copyGraph) [][]float64 {
	probs := make([][]float64, ds.NumItems())
	// Accuracy scores per source.
	q := make([]float64, ds.NumSources())
	for s, a := range st.A {
		q[s] = math.Log(p.N * a / (1 - a))
	}

	var provBuf []dataset.SourceID
	for d := range ds.ByItem {
		svs := ds.ByItem[d]
		nv := ds.NumValues(dataset.ItemID(d))
		votes := make([]float64, nv)
		if len(svs) > 0 {
			for v := 0; v < nv; v++ {
				provBuf = provBuf[:0]
				for _, sv := range svs {
					if int(sv.Value) == v {
						provBuf = append(provBuf, sv.Source)
					}
				}
				votes[v] = refValueVote(provBuf, st, q, g)
			}
		}
		probs[d] = refNormalizeVotes(votes, p.N)
	}
	return probs
}

func refValueVote(provs []dataset.SourceID, st *bayes.State, q []float64, g *copyGraph) float64 {
	if g == nil || len(provs) == 1 {
		sum := 0.0
		for _, s := range provs {
			sum += q[s]
		}
		return sum
	}
	// Rank providers by decreasing accuracy (ties by id) so the most
	// accurate provider of the value counts fully and likely copiers are
	// discounted against it.
	order := make([]dataset.SourceID, len(provs))
	copy(order, provs)
	sort.Slice(order, func(i, j int) bool {
		if st.A[order[i]] != st.A[order[j]] {
			return st.A[order[i]] > st.A[order[j]]
		}
		return order[i] < order[j]
	})
	rank := make(map[dataset.SourceID]int, len(order))
	for i, s := range order {
		rank[s] = i
	}
	sum := 0.0
	for i, s := range order {
		ind := 1.0
		for _, pt := range g.partners[s] {
			if r, ok := rank[pt.other]; ok && r < i {
				ind *= 1 - pt.prCopies
			}
		}
		sum += q[s] * ind
	}
	return sum
}

func refNormalizeVotes(votes []float64, n float64) []float64 {
	if len(votes) == 0 {
		return nil
	}
	m := 0.0 // unobserved candidates have vote 0
	for _, v := range votes {
		if v > m {
			m = v
		}
	}
	unobserved := n + 1 - float64(len(votes))
	if unobserved < 0 {
		unobserved = 0
	}
	den := unobserved * math.Exp(-m)
	for _, v := range votes {
		den += math.Exp(v - m)
	}
	probs := make([]float64, len(votes))
	for i, v := range votes {
		probs[i] = math.Exp(v-m) / den
	}
	return probs
}

// equivPreset scales a paper workload down until the whole matrix stays
// fast under -race. The seeds and scales are those of
// internal/core/parallel_equiv_test.go, except that Book-full is five
// times larger: at that file's scale no round considers a single pair.
type equivPreset struct {
	id    string
	cfg   gen.Config
	scale float64
	long  bool // skipped under -short
}

var equivPresets = []equivPreset{
	{id: "book-cs", cfg: gen.BookCS(11), scale: 0.04},
	{id: "stock-1day", cfg: gen.Stock1Day(12), scale: 0.01},
	{id: "book-full", cfg: gen.BookFull(13), scale: 0.02, long: true},
	{id: "stock-2wk", cfg: gen.Stock2Wk(14), scale: 0.004, long: true},
}

// forEachPreset runs fn on every preset's dataset as a subtest.
func forEachPreset(t *testing.T, fn func(t *testing.T, ds *dataset.Dataset)) {
	for _, pr := range equivPresets {
		t.Run(pr.id, func(t *testing.T) {
			if pr.long && testing.Short() {
				t.Skip("large preset skipped in short mode")
			}
			ds, _, err := gen.Generate(gen.Scale(pr.cfg, pr.scale))
			if err != nil {
				t.Fatalf("generate %s: %v", pr.id, err)
			}
			fn(t, ds)
		})
	}
}

// TestWorkersEquivalence: TruthFinder.Run with 2, 4 and 7 workers gives
// the one-worker run's value probabilities, accuracies, truth and round
// count, with exact float equality. The detector stays sequential, so a
// difference can only come from the truth-finding step.
func TestWorkersEquivalence(t *testing.T) {
	p := bayes.DefaultParams()
	forEachPreset(t, func(t *testing.T, ds *dataset.Dataset) {
		run := func(workers int) *Outcome {
			tf := &TruthFinder{Params: p, MaxRounds: 6, Workers: workers}
			return tf.Run(ds, &core.Hybrid{Params: p})
		}
		want := run(1)
		for _, workers := range []int{2, 4, 7} {
			got := run(workers)
			if got.Rounds != want.Rounds {
				t.Fatalf("workers=%d: %d rounds, want %d", workers, got.Rounds, want.Rounds)
			}
			if !reflect.DeepEqual(got.State.P, want.State.P) {
				t.Fatalf("workers=%d: value probabilities differ", workers)
			}
			if !reflect.DeepEqual(got.State.A, want.State.A) {
				t.Fatalf("workers=%d: accuracies differ", workers)
			}
			if !reflect.DeepEqual(got.Truth, want.Truth) {
				t.Fatalf("workers=%d: truth differs", workers)
			}
		}
	})
}

// TestValueProbsMatchesReference pins ValueProbs bit for bit against the
// implementation it replaced, on the inputs the iterative process feeds
// it — every round's state, without a graph and with the round's copy
// graph — with the value-distribution relaxation on and off. A small
// preset may detect no copying at all, so each state is also voted under
// a graph of every pair the round considered, which discounts most votes.
func TestValueProbsMatchesReference(t *testing.T) {
	p := bayes.DefaultParams()
	forEachPreset(t, func(t *testing.T, ds *dataset.Dataset) {
		for _, useDist := range []bool{false, true} {
			tf := &TruthFinder{Params: p, MaxRounds: 4, UseValueDist: useDist}
			tf.OnRound = func(round int, _ *dataset.Dataset, st *bayes.State, res *core.Result) {
				if len(res.Pairs) == 0 {
					t.Fatalf("round %d considered no pair; enlarge the preset", round)
				}
				considered := *res
				considered.Pairs = append([]core.PairResult(nil), res.Pairs...)
				for i := range considered.Pairs {
					considered.Pairs[i].Copying = true
				}
				for name, g := range map[string]*copyGraph{"none": nil, "detected": newCopyGraph(res), "considered": newCopyGraph(&considered)} {
					want := refValueProbs(ds, st, p, g)
					for _, workers := range []int{1, 3} {
						if got := valueProbs(ds, st, p, g, workers); !reflect.DeepEqual(got, want) {
							t.Fatalf("dist=%v round %d graph=%s workers=%d: differs from the reference",
								useDist, round, name, workers)
						}
					}
				}
			}
			tf.Run(ds, &core.Hybrid{Params: p})
		}
	})
}

// TestValueProbsUnprovidedValues: a value that is named but provided by
// nobody (the gold standard's, here) has vote 0, an item nobody observes
// spreads its mass evenly, and an item without values has a nil row — as
// in the reference, for every worker count.
func TestValueProbsUnprovidedValues(t *testing.T) {
	b := dataset.NewBuilder()
	b.Add("S1", "a", "x")
	b.Add("S2", "a", "x")
	b.Add("S3", "a", "y")
	b.SetTruth("a", "z") // named after x and y, provided by nobody
	b.SetTruth("b", "t") // b has a value but no observation
	b.Item("c")          // c has neither
	b.Add("S1", "d", "u")
	b.Add("S3", "d", "u")
	ds := b.Build()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	p := exampleParams()
	st := &bayes.State{A: []float64{0.9, 0.6, 0.6}}
	g := &copyGraph{partners: [][]partner{
		{{other: 1, prCopies: 0.3}, {other: 2, prCopies: 0.1}},
		{{other: 0, prCopies: 0.6}},
		{{other: 0, prCopies: 0.8}},
	}}
	for _, g := range []*copyGraph{nil, g} {
		want := refValueProbs(ds, st, p, g)
		for _, workers := range []int{1, 2, 4, 7} {
			if got := valueProbs(ds, st, p, g, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("graph=%v workers=%d:\n got  %v\n want %v", g != nil, workers, got, want)
			}
		}
		dA, vZ := dataset.LookupValue(ds, "a.z")
		_, vY := dataset.LookupValue(ds, "a.y")
		dB, _ := dataset.LookupValue(ds, "b.t")
		dC := b.Item("c")
		if pz, py := want[dA][vZ], want[dA][vY]; pz <= 0 || pz >= py {
			t.Errorf("graph=%v: P(a.z) = %v, want positive and below P(a.y) = %v", g != nil, pz, py)
		}
		if got := want[dB][0]; got != 1/(p.N+1) {
			t.Errorf("graph=%v: P(b.t) = %v, want %v", g != nil, got, 1/(p.N+1))
		}
		if want[dC] != nil {
			t.Errorf("graph=%v: item without values has row %v, want nil", g != nil, want[dC])
		}
	}
}

// TestNewCopyGraphNilResult: without a detection result there is no copy
// graph, and voting is undiscounted.
func TestNewCopyGraphNilResult(t *testing.T) {
	if g := newCopyGraph(nil); g != nil {
		t.Fatalf("newCopyGraph(nil) = %+v, want nil", g)
	}
	ds, accu := dataset.Motivating()
	p := exampleParams()
	st := &bayes.State{A: accu}
	if got, want := ValueProbs(ds, st, p, newCopyGraph(nil)), ValueProbs(ds, st, p, nil); !reflect.DeepEqual(got, want) {
		t.Error("a nil result's graph changed the votes")
	}
}

// TestAccuraciesWorkers: the source blocks cover every source once.
func TestAccuraciesWorkers(t *testing.T) {
	forEachPreset(t, func(t *testing.T, ds *dataset.Dataset) {
		st := &bayes.State{A: make([]float64, ds.NumSources())}
		for s := range st.A {
			st.A[s] = 0.8
		}
		probs := ValueProbs(ds, st, bayes.DefaultParams(), nil)
		want := Accuracies(ds, probs)
		for _, workers := range []int{2, 4, 7} {
			if got := accuracies(ds, probs, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: accuracies differ", workers)
			}
		}
	})
}
