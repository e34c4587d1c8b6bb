package fusion

import (
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
)

// TruthFinder drives the iterative process: copy detection, value
// probability computation with copier discounting, and source accuracy
// computation, repeated until source accuracies converge.
type TruthFinder struct {
	Params bayes.Params
	// MaxRounds caps the iteration count (default 12).
	MaxRounds int
	// MinRounds forces at least this many rounds (default 5, matching the
	// motivating example's five rounds; the paper's data sets need 6–9).
	MinRounds int
	// DetectDataset, when non-nil, is the (sampled) dataset on which copy
	// detection runs while truth finding still uses the full dataset; its
	// ItemMap translates its item ids into full-dataset item ids. This
	// realizes the sampling strategies of Section VI-A, where e.g.
	// SCALESAMPLE applies INCREMENTAL on sampled data but fusion and
	// evaluation happen on everything.
	DetectDataset *dataset.Dataset
	ItemMap       []dataset.ItemID
	// OnRound, when non-nil, is invoked after each round's copy detection
	// with the dataset and state the detector saw. The experiment harness
	// uses it to collect per-round measurements (Tables VIII and X).
	OnRound func(round int, detDS *dataset.Dataset, detSt *bayes.State, res *core.Result)
	// Workers splits each truth-finding step into that many contiguous
	// blocks — of items for the value probabilities, of sources for the
	// accuracies — run on a goroutine each. 0 or 1 is sequential. Like the
	// detectors' Options.Workers, whose value the construction sites pass
	// here, it never changes a result: State.P, State.A, Truth and Rounds
	// are bit-identical for every value.
	Workers int
	// Cancel, when non-nil, makes Run abandon the iterative process once
	// the channel is closed: the check happens between rounds, and a
	// cancelled Run returns nil instead of a (partial, misleading)
	// Outcome. The serving layer uses it to abort in-flight detection
	// when new observations make the round's snapshot stale.
	Cancel <-chan struct{}

	// scratch is the value-probability step's working memory, kept from one
	// Run to the next: a TruthFinder reused across Runs — the serving
	// layer's, one for every round — allocates only the probabilities it
	// returns. It never carries a value, so a reused TruthFinder computes
	// exactly what a fresh one would. One Run at a time.
	scratch probScratch
}

// Every source starts at accuracy initialAccuracy, and the process has
// converged once no accuracy moves by convergenceEps or more between
// consecutive rounds.
const (
	initialAccuracy = 0.8
	convergenceEps  = 1e-4
)

// Outcome is the result of a full iterative run.
type Outcome struct {
	// State holds the final value probabilities and source accuracies.
	State *bayes.State
	// Copy is the copy-detection result of the last round.
	Copy *core.Result
	// Truth[d] is the most probable value of each item (NoValue when the
	// item has no observation).
	Truth []dataset.ValueID
	// Rounds is the number of rounds executed.
	Rounds int
	// RoundStats collects the detector statistics per round, and
	// TotalStats their sum.
	RoundStats []core.Stats
	TotalStats core.Stats
	// FusionTime is the time spent in truth finding (outside detection).
	FusionTime time.Duration
}

func (tf *TruthFinder) maxRounds() int {
	if tf.MaxRounds == 0 {
		return 12
	}
	return tf.MaxRounds
}

func (tf *TruthFinder) minRounds() int {
	if tf.MinRounds == 0 {
		return 5
	}
	return tf.MinRounds
}

func (tf *TruthFinder) cancelled() bool {
	if tf.Cancel == nil {
		return false
	}
	select {
	case <-tf.Cancel:
		return true
	default:
		return false
	}
}

// Run executes the iterative process on ds with the given copy detector.
// Detectors with cross-round state are reset first.
func (tf *TruthFinder) Run(ds *dataset.Dataset, det core.Detector) *Outcome {
	core.ResetDetector(det)
	p := tf.Params

	// Initial value probabilities from undiscounted voting at uniform
	// accuracy, so round 1 of copy detection has informative P(D.v);
	// valueProbs reads the accuracies alone.
	st := &bayes.State{A: make([]float64, ds.NumSources())}
	for s := range st.A {
		st.A[s] = initialAccuracy
	}
	fusionStart := time.Now()
	st.P = valueProbs(ds, st, p, nil, tf.Workers, &tf.scratch)
	st.A = accuracies(ds, st.P, tf.Workers)
	out := &Outcome{}
	fusionTime := time.Since(fusionStart)

	detDS, itemMap := ds, tf.ItemMap
	if tf.DetectDataset != nil {
		detDS = tf.DetectDataset
	}

	for round := 1; round <= tf.maxRounds(); round++ {
		if tf.cancelled() {
			return nil
		}
		detSt := st
		if detDS != ds {
			detSt = projectState(st, itemMap)
		}
		res := det.DetectRound(detDS, detSt, round)
		out.Copy = res
		out.RoundStats = append(out.RoundStats, res.Stats)
		out.TotalStats.Add(res.Stats)
		if tf.OnRound != nil {
			tf.OnRound(round, detDS, detSt, res)
		}

		stepStart := time.Now()
		g := newCopyGraph(res)
		st.P = valueProbs(ds, st, p, g, tf.Workers, &tf.scratch)
		newA := accuracies(ds, st.P, tf.Workers)
		delta := 0.0
		for s := range newA {
			if d := newA[s] - st.A[s]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
		}
		st.A = newA
		fusionTime += time.Since(stepStart)
		out.Rounds = round
		if round >= tf.minRounds() && delta < convergenceEps {
			break
		}
	}

	stepStart := time.Now()
	out.State = st
	out.Truth = Decide(ds, st)
	fusionTime += time.Since(stepStart)
	out.FusionTime = fusionTime
	return out
}

// Decide returns, per item, the value with the highest probability
// (NoValue for items without observations).
func Decide(ds *dataset.Dataset, st *bayes.State) []dataset.ValueID {
	truth := make([]dataset.ValueID, ds.NumItems())
	for d := range st.P {
		truth[d] = dataset.NoValue
		best := -1.0
		for v, pv := range st.P[d] {
			if pv > best {
				best = pv
				truth[d] = dataset.ValueID(v)
			}
		}
	}
	return truth
}

// projectState restricts a full-dataset state to a sampled dataset whose
// items map back through itemMap. Accuracies carry over unchanged; the
// source id space must be shared and value ids per item preserved, which
// dataset.SubsetItems guarantees.
func projectState(st *bayes.State, itemMap []dataset.ItemID) *bayes.State {
	sub := &bayes.State{
		P: make([][]float64, len(itemMap)),
		A: st.A,
	}
	for d, full := range itemMap {
		sub.P[d] = st.P[full]
	}
	return sub
}
