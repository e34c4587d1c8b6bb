package bayes

// State carries the statistical knowledge that copy detection consumes and
// truth finding produces each round: per-value truth probabilities P(D.v)
// and per-source accuracies A(S).
type State struct {
	// P[d][v] is the probability that value v is the true value of item d.
	P [][]float64
	// A[s] is the accuracy of source s: the fraction of its values that
	// are true, interpreted as the probability it provides a true value.
	A []float64
}

// NewState allocates a state for the given per-item value counts and
// number of sources, with every accuracy set to a0 and value probabilities
// uniform over each item's observed values.
func NewState(valueCounts []int, numSources int, a0 float64) *State {
	st := &State{
		P: make([][]float64, len(valueCounts)),
		A: make([]float64, numSources),
	}
	for d, k := range valueCounts {
		st.P[d] = make([]float64, k)
		if k > 0 {
			u := 1 / float64(k)
			for v := range st.P[d] {
				st.P[d][v] = u
			}
		}
	}
	for s := range st.A {
		st.A[s] = a0
	}
	return st
}

// Clone deep-copies the state.
func (st *State) Clone() *State {
	c := &State{
		P: make([][]float64, len(st.P)),
		A: append([]float64(nil), st.A...),
	}
	for d := range st.P {
		c.P[d] = append([]float64(nil), st.P[d]...)
	}
	return c
}
