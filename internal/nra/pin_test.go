package nra

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

// inputFingerprint folds every (ID, Score) of every list, in list order
// and with list boundaries, into one FNV-64a hash: any change of a score
// bit, a tie order or a list position changes it.
func inputFingerprint(in *Input) (lists, items int, sum string) {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, l := range append(append([]List(nil), in.ValueLists...), in.DiffList) {
		put(uint64(len(l.Items)))
		for _, it := range l.Items {
			put(uint64(it.ID))
			put(math.Float64bits(it.Score))
		}
		items += len(l.Items)
	}
	return len(in.ValueLists), items, fmt.Sprintf("%016x", h.Sum64())
}

func topFingerprint(top []Scored) string {
	s := ""
	for _, it := range top {
		s += fmt.Sprintf("%d:%.9f ", it.ID, it.Score)
	}
	return s
}

// TestBuildInputPinned pins FAGININPUT's exact output — list order, tie
// order inside lists, every score bit — and NRA's top pairs over it, on
// the motivating example and one seeded synthetic instance. The expected
// values were generated at the commit before BuildInput moved onto
// index.Structure/View; the port had to reproduce them unchanged.
func TestBuildInputPinned(t *testing.T) {
	motivating, _, _, _ := motivatingInput(t)

	ds, _, err := gen.Generate(gen.Scale(gen.Stock1Day(13), 0.01))
	if err != nil {
		t.Fatal(err)
	}
	p := bayes.DefaultParams()
	out := (&fusion.TruthFinder{Params: p, MaxRounds: 1, MinRounds: 1}).Run(ds, &core.Index{Params: p})
	seeded := BuildInput(ds, out.State, p)

	for _, tc := range []struct {
		name         string
		in           *Input
		lists, items int
		sum, top     string
	}{
		{name: "motivating", in: motivating, lists: 13, items: 75, sum: "5d4c47a5f9b16701",
			top: "30064771080:12.858036417 8589934595:11.571247944 8589934596:11.280502655 25769803783:11.130234142 25769803784:9.516175547 12884901892:5.897983086 1:0.033723497 4294967305:0.025436287 9:0.016684257 21474836486:-0.236251416 "},
		{name: "stock-1day/seed13", in: seeded, lists: 234, items: 52946, sum: "59e86ad1f7c6926d",
			top: "25769803783:79.262522265 12884901892:72.757031792 34359738377:39.851920323 60129542159:17.397404470 42949672971:16.048836593 2:15.277503551 12884901893:15.026344962 17179869189:12.324365447 42949672973:8.590458220 42949672972:4.781178431 "},
	} {
		lists, items, sum := inputFingerprint(tc.in)
		if lists != tc.lists || items != tc.items || sum != tc.sum {
			t.Errorf("%s: input = %d lists, %d items, hash %s; want %d, %d, %s",
				tc.name, lists, items, sum, tc.lists, tc.items, tc.sum)
		}
		top, _ := tc.in.TopPairs(10)
		if got := topFingerprint(top); got != tc.top {
			t.Errorf("%s: TopPairs(10) = %q, want %q", tc.name, got, tc.top)
		}
	}
}
