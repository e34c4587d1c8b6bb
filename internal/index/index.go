// Package index implements the specialized inverted index of Section III
// of "Scaling up Copy Detection" (Definition 3.2). Each entry corresponds
// to a value D.v provided by at least two sources; it carries the
// probability P(D.v) of the value being true and the contribution score
// C(E) = M̂(D.v), the maximum evidence sharing the value can contribute to
// a copying conclusion (Proposition 3.1). Entries are processed in
// decreasing score order; the alternative orderings exist for the paper's
// Figure 3, and only internal/experiments selects them.
//
//copydetect:deterministic
package index

// Order selects how entries are arranged for scanning.
type Order int

const (
	// ByContribution processes entries in decreasing contribution score,
	// the ordering proposed by the paper.
	ByContribution Order = iota
	// ByProvider processes entries in increasing number of providers.
	ByProvider
	// Random processes entries in random order (requires a rand source).
	Random
)

func (o Order) String() string {
	switch o {
	case ByContribution:
		return "ByContribution"
	case ByProvider:
		return "ByProvider"
	case Random:
		return "Random"
	default:
		return "Order(?)"
	}
}
