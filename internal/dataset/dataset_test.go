package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	b.Add("S1", "NJ", "Trenton")
	b.Add("S2", "NJ", "Atlantic")
	b.Add("S1", "AZ", "Phoenix")
	b.SetTruth("NJ", "Trenton")
	ds := b.Build()
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ds.NumSources() != 2 || ds.NumItems() != 2 {
		t.Fatalf("got %d sources, %d items", ds.NumSources(), ds.NumItems())
	}
	if ds.NumValues(0) != 2 {
		t.Errorf("NJ should have 2 values, got %d", ds.NumValues(0))
	}
	if got := ds.ValueOf(0, 0); ds.ValueNames[0][got] != "Trenton" {
		t.Errorf("S1's NJ value = %q", ds.ValueNames[0][got])
	}
	if got := ds.ValueOf(1, 1); got != NoValue {
		t.Errorf("S2 should not cover AZ, got %v", got)
	}
	if ds.Truth[0] == NoValue || ds.ValueNames[0][ds.Truth[0]] != "Trenton" {
		t.Errorf("truth of NJ wrong")
	}
	if ds.Truth[1] != NoValue {
		t.Errorf("truth of AZ should be unknown")
	}
}

func TestBuilderOverwrite(t *testing.T) {
	b := NewBuilder()
	b.Add("S1", "NJ", "Trenton")
	b.Add("S1", "NJ", "Atlantic") // last write wins
	ds := b.Build()
	if n := ds.NumObservations(); n != 1 {
		t.Fatalf("expected 1 observation, got %d", n)
	}
	if v := ds.ValueOf(0, 0); ds.ValueNames[0][v] != "Atlantic" {
		t.Errorf("overwrite failed, got %q", ds.ValueNames[0][v])
	}
}

func TestMotivatingFixture(t *testing.T) {
	ds, accu := Motivating()
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ds.NumSources() != 10 || ds.NumItems() != 5 {
		t.Fatalf("got %d sources, %d items", ds.NumSources(), ds.NumItems())
	}
	if len(accu) != 10 {
		t.Fatalf("accuracy vector has %d entries", len(accu))
	}
	// Table I: S0 has no FL value, S6 no NJ, S7 no AZ, S9 only NJ/FL/TX.
	if ds.Coverage(0) != 4 || ds.Coverage(6) != 4 || ds.Coverage(9) != 3 {
		t.Errorf("coverage mismatch: S0=%d S6=%d S9=%d", ds.Coverage(0), ds.Coverage(6), ds.Coverage(9))
	}
	if ds.Coverage(1) != 5 {
		t.Errorf("S1 should cover all 5 items, got %d", ds.Coverage(1))
	}
	// Example 3.6 says PAIRWISE examines 183 shared data items over the 45
	// pairs. Reconstructing Table I gives Σ_D C(|providers(D)|, 2) =
	// 36+28+36+36+45 = 181; the paper's 183 appears to be a small
	// arithmetic slip, since its INDEX-side counts (51 shared values, 26
	// pairs — tested in internal/core) reproduce exactly from this table.
	total := 0
	for s1 := SourceID(0); s1 < 10; s1++ {
		for s2 := s1 + 1; s2 < 10; s2++ {
			total += ds.SharedItems(s1, s2)
		}
	}
	if total != 181 {
		t.Errorf("total shared items = %d, want 181 (cf. Example 3.6's 183)", total)
	}
	// Example 2.1: S2 and S3 share 4 values; S0 and S1 share 4 values.
	if n := ds.SharedValues(2, 3); n != 4 {
		t.Errorf("n(S2,S3) = %d, want 4", n)
	}
	if n := ds.SharedValues(0, 1); n != 4 {
		t.Errorf("n(S0,S1) = %d, want 4", n)
	}
	// Section II-B: 18 pairs share no value at all... the paper counts
	// pairs sharing no data item or value; verify S0/S6 share no value.
	if n := ds.SharedValues(0, 6); n != 0 {
		t.Errorf("n(S0,S6) = %d, want 0", n)
	}
	// l(S2,S3) = 5 (both cover everything), l(S0,S5) = 4.
	if l := ds.SharedItems(2, 3); l != 5 {
		t.Errorf("l(S2,S3) = %d, want 5", l)
	}
	if l := ds.SharedItems(0, 5); l != 4 {
		t.Errorf("l(S0,S5) = %d, want 4", l)
	}
}

func TestLookupValue(t *testing.T) {
	ds, _ := Motivating()
	d, v := LookupValue(ds, "NJ.Atlantic")
	if d < 0 || v < 0 {
		t.Fatal("NJ.Atlantic not found")
	}
	if ds.ItemNames[d] != "NJ" || ds.ValueNames[d][v] != "Atlantic" {
		t.Errorf("lookup returned %s.%s", ds.ItemNames[d], ds.ValueNames[d][v])
	}
	if d, v := LookupValue(ds, "NJ.Nowhere"); d != -1 || v != -1 {
		t.Errorf("bogus lookup returned %d,%d", d, v)
	}
}

func TestSummarize(t *testing.T) {
	ds, _ := Motivating()
	st := Summarize(ds)
	if st.Sources != 10 || st.Items != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Observations != 45 {
		t.Errorf("observations = %d, want 45", st.Observations)
	}
	// Table III has 13 entries: 13 values provided by >= 2 sources.
	if st.SharedValues != 13 {
		t.Errorf("shared values = %d, want 13", st.SharedValues)
	}
	// Distinct values: 13 shared + NJ.Union, AZ.Tucson, TX.Arlington.
	if st.DistinctValues != 16 {
		t.Errorf("distinct values = %d, want 16", st.DistinctValues)
	}
	if !strings.Contains(st.String(), "#Srcs=10") {
		t.Errorf("String() = %q", st.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ds, _ := Motivating()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ds); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	assertSameData(t, ds, got)
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := Motivating()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	assertSameData(t, ds, got)
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}
	if _, err := ReadCSV(strings.NewReader("just-one-column\n")); err == nil {
		t.Error("headerless CSV should fail")
	}
	if _, err := ReadCSV(strings.NewReader("source,NJ\n,Trenton\n")); err == nil {
		t.Error("empty source name should fail")
	}
}

// assertSameData verifies two datasets agree observation by observation
// (ids may be permuted, names are authoritative).
func assertSameData(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.NumSources() != want.NumSources() || got.NumItems() != want.NumItems() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.NumSources(), got.NumItems(), want.NumSources(), want.NumItems())
	}
	gotItem := make(map[string]ItemID)
	for d, n := range got.ItemNames {
		gotItem[n] = ItemID(d)
	}
	gotSource := make(map[string]SourceID)
	for s, n := range got.SourceNames {
		gotSource[n] = SourceID(s)
	}
	for s := range want.BySource {
		for _, o := range want.BySource[s] {
			gs, ok1 := gotSource[want.SourceNames[s]]
			gd, ok2 := gotItem[want.ItemNames[o.Item]]
			if !ok1 || !ok2 {
				t.Fatalf("missing source/item %q/%q", want.SourceNames[s], want.ItemNames[o.Item])
			}
			gv := got.ValueOf(gs, gd)
			if gv == NoValue || got.ValueNames[gd][gv] != want.ValueNames[o.Item][o.Value] {
				t.Fatalf("value mismatch at %s/%s", want.SourceNames[s], want.ItemNames[o.Item])
			}
		}
	}
	if (want.Truth == nil) != (got.Truth == nil) {
		t.Fatal("truth presence mismatch")
	}
	if want.Truth != nil {
		for d, tv := range want.Truth {
			gd := gotItem[want.ItemNames[d]]
			gt := got.Truth[gd]
			if (tv == NoValue) != (gt == NoValue) {
				t.Fatalf("truth presence mismatch on %s", want.ItemNames[d])
			}
			if tv != NoValue && got.ValueNames[gd][gt] != want.ValueNames[d][tv] {
				t.Fatalf("truth mismatch on %s", want.ItemNames[d])
			}
		}
	}
}

func TestSharedItemsSymmetric(t *testing.T) {
	ds, _ := Motivating()
	for s1 := SourceID(0); s1 < 10; s1++ {
		for s2 := s1 + 1; s2 < 10; s2++ {
			if ds.SharedItems(s1, s2) != ds.SharedItems(s2, s1) {
				t.Fatalf("SharedItems not symmetric for (%d,%d)", s1, s2)
			}
			if ds.SharedValues(s1, s2) > ds.SharedItems(s1, s2) {
				t.Fatalf("n > l for (%d,%d)", s1, s2)
			}
		}
	}
}

func TestSubsetItems(t *testing.T) {
	ds, _ := Motivating()
	sub, itemMap := SubsetItems(ds, []ItemID{3, 0}) // FL, NJ in that order
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sub.NumSources() != ds.NumSources() {
		t.Errorf("subset must keep all sources")
	}
	if sub.NumItems() != 2 || sub.ItemNames[0] != "FL" || sub.ItemNames[1] != "NJ" {
		t.Errorf("subset items wrong: %v", sub.ItemNames)
	}
	if !reflect.DeepEqual(itemMap, []ItemID{3, 0}) {
		t.Errorf("itemMap = %v", itemMap)
	}
	// Value ids must be preserved relative to the full dataset.
	for s := SourceID(0); int(s) < ds.NumSources(); s++ {
		for newD, oldD := range itemMap {
			if got, want := sub.ValueOf(s, ItemID(newD)), ds.ValueOf(s, oldD); got != want {
				t.Fatalf("value of source %d item %s changed: %d vs %d", s, ds.ItemNames[oldD], got, want)
			}
		}
	}
	// Truth carries over.
	if sub.Truth[1] != ds.Truth[0] {
		t.Errorf("truth not carried")
	}
}

// TestSubsetItemsProperty: any random subset of a random dataset validates
// and preserves per-source values.
func TestSubsetItemsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 6, 12, 3)
		k := 1 + rng.Intn(ds.NumItems())
		perm := rng.Perm(ds.NumItems())[:k]
		items := make([]ItemID, k)
		for i, d := range perm {
			items[i] = ItemID(d)
		}
		sub, itemMap := SubsetItems(ds, items)
		if sub.Validate() != nil {
			return false
		}
		for s := 0; s < ds.NumSources(); s++ {
			for newD, oldD := range itemMap {
				if sub.ValueOf(SourceID(s), ItemID(newD)) != ds.ValueOf(SourceID(s), oldD) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomDataset builds a small random dataset for property tests.
func randomDataset(rng *rand.Rand, ns, ni, nv int) *Dataset {
	b := NewBuilder()
	names := make([]string, ni)
	for d := 0; d < ni; d++ {
		names[d] = "D" + string(rune('A'+d))
		b.Item(names[d])
	}
	for s := 0; s < ns; s++ {
		sn := "S" + string(rune('a'+s))
		b.Source(sn)
		for d := 0; d < ni; d++ {
			if rng.Float64() < 0.6 {
				b.Add(sn, names[d], "v"+string(rune('0'+rng.Intn(nv))))
			}
		}
	}
	return b.Build()
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds, _ := Motivating()
	// Break ByItem ordering.
	bad := *ds
	bad.ByItem = make([][]SV, len(ds.ByItem))
	copy(bad.ByItem, ds.ByItem)
	bad.ByItem[0] = append([]SV(nil), ds.ByItem[0]...)
	bad.ByItem[0][0], bad.ByItem[0][1] = bad.ByItem[0][1], bad.ByItem[0][0]
	if err := bad.Validate(); err == nil {
		t.Error("Validate should catch unsorted ByItem")
	}
	// Break value range.
	bad2 := *ds
	bad2.BySource = make([][]Obs, len(ds.BySource))
	copy(bad2.BySource, ds.BySource)
	bad2.BySource[0] = append([]Obs(nil), ds.BySource[0]...)
	bad2.BySource[0][0].Value = 99
	if err := bad2.Validate(); err == nil {
		t.Error("Validate should catch out-of-range value")
	}
}

// TestValidateColumnsAgree: the linear Validate must still catch every
// way BySource and ByItem can disagree while each is sorted and in range
// on its own — the cases the per-cell binary search used to catch.
func TestValidateColumnsAgree(t *testing.T) {
	ds, _ := Motivating()
	corrupt := func(name string, mutate func(bad *Dataset)) {
		t.Helper()
		bad := deepCopy(ds)
		mutate(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted a dataset with %s", name)
		}
	}
	if err := deepCopy(ds).Validate(); err != nil {
		t.Fatalf("a copy of the fixture is invalid: %v", err)
	}
	corrupt("a cell missing from ByItem", func(bad *Dataset) { bad.ByItem[2] = bad.ByItem[2][1:] })
	corrupt("the last cell of a source missing from ByItem", func(bad *Dataset) {
		last := len(bad.ByItem) - 1
		bad.ByItem[last] = bad.ByItem[last][:len(bad.ByItem[last])-1]
	})
	corrupt("a cell missing from BySource", func(bad *Dataset) { bad.BySource[3] = bad.BySource[3][1:] })
	corrupt("the columns disagreeing on a value", func(bad *Dataset) { bad.ByItem[1][0].Value ^= 1 })
	corrupt("a cell moved to another item in one column", func(bad *Dataset) {
		// S0 covers everything but FL (item 3): claim it covers FL instead of TX (item 4).
		obs := bad.BySource[0]
		obs[len(obs)-1].Item = 3
	})
}
