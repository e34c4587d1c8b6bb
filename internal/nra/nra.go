// Package nra implements Fagin's No-Random-Access algorithm (Fagin, Lotem,
// Naor, PODS 2001) for top-k aggregation over score-sorted lists, plus the
// FAGININPUT generator of Section II-B: the paper explored NRA as an
// alternative route to scalable copy detection and found that merely
// generating NRA's input lists is already slower than the proposed
// index-based algorithms (Table X).
package nra

import (
	"container/heap"
	"sort"
)

// Scored is one (object, partial score) pair inside a list.
type Scored struct {
	ID    int64
	Score float64
}

// List is one input list for NRA, sorted by decreasing score. An object
// appears at most once per list; an object absent from the list
// contributes exactly Absent to its aggregate (0 in the classic setting:
// "not in this list" means "no partial score from it").
type List struct {
	Items  []Scored
	Absent float64
}

// Sorted reports whether the list respects the decreasing-score contract.
func (l List) Sorted() bool {
	return sort.SliceIsSorted(l.Items, func(i, j int) bool { return l.Items[i].Score > l.Items[j].Score })
}

// low returns the smallest contribution the list could make for an object
// not yet seen in it: either it appears with at most the list's minimum
// score, or it is absent.
func (l List) low() float64 {
	if len(l.Items) == 0 {
		return l.Absent
	}
	if m := l.Items[len(l.Items)-1].Score; m < l.Absent {
		return m
	}
	return l.Absent
}

// objState tracks what NRA knows about one object.
type objState struct {
	known    float64
	seenMask uint64
}

// TopK runs NRA over the lists (at most 64 of them) and returns the k
// objects with the largest aggregate (sum) scores, best first, using
// sequential accesses only. depth reports the total number of sequential
// accesses performed before the stopping condition held.
func TopK(lists []List, k int) (top []Scored, depth int) {
	if k <= 0 || len(lists) == 0 || len(lists) > 64 {
		return nil, 0
	}
	nl := len(lists)
	objs := make(map[int64]*objState)
	// For an object not yet seen in list i there are two cases while the
	// list still has unread items: it appears later (score within
	// [min item score, current frontier score]) or it is absent (exactly
	// Absent). Once the list is exhausted, absence is certain and the
	// contribution is exactly Absent.
	frontier := make([]float64, nl) // upper bound of an unseen contribution
	lows := make([]float64, nl)     // lower bound of an unseen contribution
	pos := make([]int, nl)
	for i, l := range lists {
		lows[i] = l.low()
		if len(l.Items) > 0 {
			frontier[i] = l.Items[0].Score
		} else {
			frontier[i] = l.Absent
		}
		if frontier[i] < l.Absent {
			frontier[i] = l.Absent
		}
	}

	worst := func(o *objState) float64 {
		w := o.known
		for i := 0; i < nl; i++ {
			if o.seenMask&(1<<uint(i)) == 0 {
				w += lows[i]
			}
		}
		return w
	}
	best := func(o *objState) float64 {
		b := o.known
		for i := 0; i < nl; i++ {
			if o.seenMask&(1<<uint(i)) == 0 {
				b += frontier[i]
			}
		}
		return b
	}

	for {
		progressed := false
		for i := range lists {
			if pos[i] >= len(lists[i].Items) {
				continue
			}
			it := lists[i].Items[pos[i]]
			pos[i]++
			depth++
			progressed = true
			o := objs[it.ID]
			if o == nil {
				o = &objState{}
				objs[it.ID] = o
			}
			o.known += it.Score
			o.seenMask |= 1 << uint(i)
			if pos[i] < len(lists[i].Items) {
				frontier[i] = lists[i].Items[pos[i]].Score
				if frontier[i] < lists[i].Absent {
					frontier[i] = lists[i].Absent
				}
			} else {
				// Exhausted: unseen objects are definitively absent.
				frontier[i] = lists[i].Absent
				lows[i] = lists[i].Absent
			}
		}
		if !progressed {
			break // all lists exhausted: every aggregate is exact
		}
		if len(objs) < k {
			continue
		}
		// Fagin's stopping rule: fix T = the current top-k by worst-case
		// score with threshold m = min worst in T, and stop once neither a
		// completely unseen object nor any object outside T can exceed m.
		T := currentTop(objs, k, worst)
		m := T[k-1].Score
		unseenBest := 0.0
		for i := range frontier {
			unseenBest += frontier[i]
		}
		if unseenBest > m {
			continue
		}
		in := make(map[int64]bool, k)
		for _, s := range T {
			in[s.ID] = true
		}
		stop := true
		for id, o := range objs {
			if !in[id] && best(o) > m {
				stop = false
				break
			}
		}
		if stop {
			break
		}
	}

	// The answer is the set the stopping rule validated (or, with every
	// list exhausted, the exact top k). Reported scores are the proven
	// lower bounds, which are exact whenever the object was seen in (or
	// is provably absent from) every list.
	return currentTop(objs, k, worst), depth
}

// currentTop returns the (at most) k objects with the largest worst-case
// scores, ranked by score descending and then ID ascending: a total
// order, so the set does not depend on the map's iteration order.
func currentTop(objs map[int64]*objState, k int, worst func(*objState) float64) []Scored {
	h := &scoredHeap{}
	for id, o := range objs {
		heap.Push(h, Scored{ID: id, Score: worst(o)})
		if h.Len() > k {
			heap.Pop(h)
		}
	}
	top := make([]Scored, h.Len())
	for i := len(top) - 1; i >= 0; i-- {
		top[i] = heap.Pop(h).(Scored)
	}
	return top
}

// scoredHeap is a min-heap in currentTop's ranking (lowest score first,
// the larger ID first among equal scores) used to keep the running top-k.
type scoredHeap []Scored

func (h scoredHeap) Len() int { return len(h) }
func (h scoredHeap) Less(i, j int) bool {
	return h[i].Score < h[j].Score || h[i].Score == h[j].Score && h[i].ID > h[j].ID
}
func (h scoredHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x any)   { *h = append(*h, x.(Scored)) }
func (h *scoredHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
