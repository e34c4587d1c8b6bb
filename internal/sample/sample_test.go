package sample

import (
	"math/rand"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
	"copydetect/internal/testkit"
)

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := gen.Scale(gen.BookCS(7), 0.15)
	ds, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

func TestByItemRate(t *testing.T) {
	ds := testDataset(t)
	for _, rate := range []float64{0.1, 0.5, 1.0} {
		r := ByItem(ds, rate, rand.New(rand.NewSource(1)))
		if err := r.Dataset.Validate(); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		want := int(rate * float64(ds.NumItems()))
		if got := r.Dataset.NumItems(); got != want {
			t.Errorf("rate %v: sampled %d items, want %d", rate, got, want)
		}
		if r.ItemRate < rate-0.01 || r.ItemRate > rate+0.01 {
			t.Errorf("rate %v: reported item rate %v", rate, r.ItemRate)
		}
	}
}

func TestByItemTinyRate(t *testing.T) {
	ds := testDataset(t)
	r := ByItem(ds, 0.000001, rand.New(rand.NewSource(1)))
	if r.Dataset.NumItems() != 1 {
		t.Errorf("tiny rate should keep one item, got %d", r.Dataset.NumItems())
	}
}

func TestByCellBudget(t *testing.T) {
	ds := testDataset(t)
	r := ByCell(ds, 0.3, rand.New(rand.NewSource(2)))
	if err := r.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	got := float64(r.Dataset.NumObservations()) / float64(ds.NumObservations())
	if got < 0.3 {
		t.Errorf("cell rate %v below requested 0.3", got)
	}
	// The overshoot is bounded by one item's observations.
	if got > 0.3+float64(maxItemObs(ds))/float64(ds.NumObservations()) {
		t.Errorf("cell rate %v overshoots", got)
	}
}

func maxItemObs(ds *dataset.Dataset) int {
	m := 0
	for d := range ds.ByItem {
		if len(ds.ByItem[d]) > m {
			m = len(ds.ByItem[d])
		}
	}
	return m
}

// TestScaleSampleMinPerSource: the defining property of SCALESAMPLE —
// every source keeps at least N sampled items (or its whole coverage).
func TestScaleSampleMinPerSource(t *testing.T) {
	ds := testDataset(t)
	const minN = 4
	r := ScaleSample(ds, 0.1, minN, rand.New(rand.NewSource(3)))
	if err := r.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ds.NumSources(); s++ {
		have := r.Dataset.Coverage(dataset.SourceID(s))
		full := ds.Coverage(dataset.SourceID(s))
		want := minN
		if full < minN {
			want = full
		}
		if have < want {
			t.Fatalf("source %d keeps %d sampled items, want >= %d (coverage %d)", s, have, want, full)
		}
	}
	// And it samples more items than plain ByItem at the same rate, on a
	// low-coverage dataset.
	bi := ByItem(ds, 0.1, rand.New(rand.NewSource(3)))
	if r.Dataset.NumItems() <= bi.Dataset.NumItems() {
		t.Errorf("SCALESAMPLE kept %d items, ByItem %d; top-up should add items",
			r.Dataset.NumItems(), bi.Dataset.NumItems())
	}
}

func TestScaleSampleHighCoverageNoTopUp(t *testing.T) {
	// On a Stock-like dataset every source covers many items, so a 10%
	// sample already gives every source >= 4 items and SCALESAMPLE
	// degenerates to ByItem's size.
	cfg := gen.Scale(gen.Stock1Day(11), 0.05)
	ds, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := ScaleSample(ds, 0.1, 4, rand.New(rand.NewSource(4)))
	want := int(0.1 * float64(ds.NumItems()))
	if got := r.Dataset.NumItems(); got > want+ds.NumSources()*4 {
		t.Errorf("unexpectedly large top-up: %d items vs base %d", got, want)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	ds := testDataset(t)
	a := ScaleSample(ds, 0.2, 4, rand.New(rand.NewSource(9)))
	b := ScaleSample(ds, 0.2, 4, rand.New(rand.NewSource(9)))
	if d := testkit.Diff(b, a); d != "" {
		t.Fatalf("sampling not deterministic under same seed: %s", d)
	}
}

func TestItemMapRoundTrip(t *testing.T) {
	ds := testDataset(t)
	r := ByItem(ds, 0.25, rand.New(rand.NewSource(5)))
	for newD, oldD := range r.ItemMap {
		if r.Dataset.ItemNames[newD] != ds.ItemNames[oldD] {
			t.Fatalf("item map broken at %d", newD)
		}
	}
}
