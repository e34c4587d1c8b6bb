package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// ioFixture builds a small dataset with conflicts, missing cells and a
// partial gold standard — enough to exercise every serialization path.
func ioFixture() *Dataset {
	b := NewBuilder()
	b.Add("alpha", "NJ", "Trenton")
	b.Add("alpha", "AZ", "Phoenix")
	b.Add("beta", "NJ", "Atlantic")
	b.Add("beta", "NY", "Albany")
	b.Add("gamma", "NJ", "Trenton")
	b.Add("gamma", "AZ", "Tempe")
	b.Add("gamma", "NY", "Albany")
	b.SetTruth("NJ", "Trenton")
	b.SetTruth("AZ", "Phoenix")
	return b.Build()
}

func findSource(ds *Dataset, name string) SourceID {
	for s, n := range ds.SourceNames {
		if n == name {
			return SourceID(s)
		}
	}
	return -1
}

func findItem(ds *Dataset, name string) ItemID {
	for d, n := range ds.ItemNames {
		if n == name {
			return ItemID(d)
		}
	}
	return -1
}

// TestJSONRoundTripPartialTruth: a partial gold standard survives the
// JSON round trip item by item, and a truthless dataset stays truthless.
func TestJSONRoundTripPartialTruth(t *testing.T) {
	want := ioFixture()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped dataset invalid: %v", err)
	}
	assertSameData(t, want, got)
	if got.Truth == nil {
		t.Fatal("truth lost in round trip")
	}
	nj, az, ny := findItem(got, "NJ"), findItem(got, "AZ"), findItem(got, "NY")
	if got.ValueNames[nj][got.Truth[nj]] != "Trenton" || got.ValueNames[az][got.Truth[az]] != "Phoenix" {
		t.Fatal("truth values corrupted in round trip")
	}
	if got.Truth[ny] != NoValue {
		t.Fatal("round trip invented a truth for an item without one")
	}

	buf.Reset()
	b := NewBuilder()
	b.Add("a", "x", "1")
	b.Add("b", "x", "2")
	if err := WriteJSON(&buf, b.Build()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got, err := ReadJSON(&buf); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	} else if got.Truth != nil {
		t.Fatal("truth materialized from a truthless file")
	}
}

// TestCSVRoundTripPartial: the CSV round trip preserves missing cells
// and the partial TRUTH row.
func TestCSVRoundTripPartial(t *testing.T) {
	want := ioFixture()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, want); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	assertSameData(t, want, got)
	if got.ValueOf(findSource(got, "beta"), findItem(got, "AZ")) != NoValue {
		t.Fatal("round trip materialized a missing cell")
	}
	if ny := findItem(got, "NY"); got.Truth[ny] != NoValue {
		t.Fatal("round trip invented a truth for an item without one")
	}
}

// TestReadCSVTableLayout pins the Table I conventions: whitespace
// trimming, case-insensitive TRUTH rows, and short rows as missing
// cells.
func TestReadCSVTableLayout(t *testing.T) {
	in := strings.Join([]string{
		"source,NJ,AZ",
		"alpha, Trenton ,Phoenix",
		"beta,Atlantic",
		"truth,Trenton,Phoenix",
	}, "\n")
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if ds.NumSources() != 2 || ds.NumItems() != 2 || ds.NumObservations() != 3 {
		t.Fatalf("parsed shape: %s", Summarize(ds))
	}
	s, d := findSource(ds, "alpha"), findItem(ds, "NJ")
	if v := ds.ValueOf(s, d); v == NoValue || ds.ValueNames[d][v] != "Trenton" {
		t.Fatal("whitespace not trimmed from CSV cell")
	}
	if ds.Truth == nil || ds.Truth[d] == NoValue || ds.ValueNames[d][ds.Truth[d]] != "Trenton" {
		t.Fatal("case-insensitive TRUTH row not parsed")
	}
	if az := findItem(ds, "AZ"); ds.ValueOf(findSource(ds, "beta"), az) != NoValue {
		t.Fatal("short row materialized a value for a missing cell")
	}
}

func TestReadJSONMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"truncated":  `{"sources":["a"],`,
		"not-json":   `this is not json`,
		"wrong-type": `{"sources":"a"}`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%s) accepted malformed input", name)
		}
	}
}

// TestReadCSVMalformedQuoting covers the csv-reader error path, which
// TestReadCSVErrors (structural errors) does not reach.
func TestReadCSVMalformedQuoting(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("source,NJ\n\"alpha,Trenton")); err == nil {
		t.Error("ReadCSV accepted an unterminated quote")
	}
	if _, err := ReadCSV(strings.NewReader("source,NJ\nal\"pha\",Trenton")); err == nil {
		t.Error("ReadCSV accepted a bare quote inside a field")
	}
}

// TestRecordsRoundTrip: Records/TruthRecords flatten a dataset into the
// streaming-append format, and replaying them through a Builder
// reproduces the dataset.
func TestRecordsRoundTrip(t *testing.T) {
	want := ioFixture()
	recs := Records(want)
	if len(recs) != want.NumObservations() {
		t.Fatalf("Records returned %d records, want %d", len(recs), want.NumObservations())
	}
	truth := TruthRecords(want)
	if len(truth) != 2 {
		t.Fatalf("TruthRecords returned %d records, want 2", len(truth))
	}
	b := NewBuilder()
	b.AddRecords(recs)
	for _, tr := range truth {
		b.SetTruth(tr.Item, tr.Value)
	}
	got := b.Build()
	if err := got.Validate(); err != nil {
		t.Fatalf("replayed dataset invalid: %v", err)
	}
	assertSameData(t, want, got)
	if TruthRecords(got) == nil {
		t.Fatal("replayed dataset lost its truth")
	}

	b2 := NewBuilder()
	b2.Add("a", "x", "1")
	if TruthRecords(b2.Build()) != nil {
		t.Fatal("TruthRecords invented truth for a truthless dataset")
	}
}

// TestReadJSONTruthOnlyItemsDeterministic: items that appear only under
// "truth" get their ids in document order. The map-ranging ReadJSON gave
// this very document a different ItemNames order from run to run.
func TestReadJSONTruthOnlyItemsDeterministic(t *testing.T) {
	const doc = `{"sources":["a"],"items":["listed"],
		"observations":[{"s":"a","d":"seen","v":"1"}],
		"truth":{"t3":"x","t1":"x","t6":"x","t2":"x","t5":"x","t4":"x","seen":"1"}}`
	want := []string{"listed", "seen", "t3", "t1", "t6", "t2", "t5", "t4"}
	for i := 0; i < 50; i++ {
		ds, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.ItemNames, want) {
			t.Fatalf("decode %d: ItemNames = %v, want document order %v", i, ds.ItemNames, want)
		}
	}
	// One unknown key hands the document to encoding/json, whose map has
	// no order to follow: sorted by item name, and still the same every time.
	other := strings.Replace(doc, `{"sources"`, `{"comment":"hand-written","sources"`, 1)
	want = []string{"listed", "seen", "t1", "t2", "t3", "t4", "t5", "t6"}
	for i := 0; i < 50; i++ {
		ds, err := ReadJSON(strings.NewReader(other))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.ItemNames, want) {
			t.Fatalf("decode %d: ItemNames = %v, want %v", i, ds.ItemNames, want)
		}
	}
}

// jsonCases are documents and append bodies around the edge of what the
// scanner answers itself: the differential tests and both fuzz targets
// start from them.
var jsonCases = []string{
	// canonical
	`{"sources":["a","b"],"items":["x"],"observations":[{"s":"a","d":"x","v":"1"},{"s":"b","d":"x","v":"2"}],"truth":{"x":"1"}}`,
	`{"observations":[{"s":"a","d":"x","v":"1"}],"truth":[{"d":"x","v":"1"}]}`,
	"{ \"observations\" : [\n\t{ \"v\" : \"1\" , \"d\" : \"x\" , \"s\" : \"a\" }\r\n] }",
	`{}`, `{"observations":[]}`, `{"observations":[{}]}`, `{"truth":{}}`, `{"truth":[]}`,
	`{"observations":[{"s":"a"}],"truth":[{"s":"kept","d":"x","v":"1"}]}`,
	// strings encoding/json decodes for the scanner
	`{"observations":[{"s":"tab\there","d":"quote\"back\\slash\/","v":"é世"}]}`,
	`{"observations":[{"s":"😀","d":"\ud83d","v":"\ude00\ud83d"}]}`,
	"{\"observations\":[{\"s\":\"\xff\xfe\",\"d\":\"\xc3\x28\",\"v\":\"é世\"}]}",
	"{\"observations\":[{\"s\":\"raw\x01control\"}]}",
	`{"observations":[{"s":"bad \x escape"}]}`, `{"observations":[{"s":"\u12"}]}`, `{"observations":[{"s":"open`,
	// not canonical: encoding/json decides
	`{"Observations":[{"S":"a","D":"x","V":"1"}]}`,
	`{"observations":[{"s":"a","d":"x","v":"1","w":"unknown"}],"extra":{"nested":[1,{"a":null}]}}`,
	`{"observations":[{"s":"a","s":"b"}]}`, `{"observations":[],"observations":[{"s":"a"}]}`,
	`{"truth":{"x":"1","x":"2"}}`, `{"truth":{"x":"1","y":"2","x":"3"},"observations":[]}`,
	`{"items":["x"],"sources":["a"]}`, `{"sources":["a"],"sources":["b"]}`,
	`{"observations":null,"truth":null}`, `{"observations":[null]}`, `{"observations":[{"s":null,"d":"x"}]}`, `null`,
	`{"observations":[{"s":1}]}`, `{"observations":[{"s":["a"]}]}`, `{"observations":{"s":"a"}}`, `{"observations":["a"]}`,
	`{"sources":[1]}`, `{"sources":"a"}`, `{"truth":{"x":1}}`, `{"truth":["x"]}`,
	`[{"s":"a"}]`, `"string"`, `12`, `true`,
	// trailing bytes, and nothing at all
	`{"observations":[{"s":"a","d":"x","v":"1"}]} trailing garbage`, `{"sources":["a"]}{"sources":["b"]}`, `{"observations":[]}]`,
	``, ` `, `{`, `{"observations":[`, `{"observations":[{"s":"a"},]}`, `{"observations":[{"s":"a"}],}`, `{"observations" [ ]}`,
	"\xef\xbb\xbf{}",
}

// sameDataset fails unless the scanner's dataset equals encoding/json's:
// deep-equal when both gave the items the same ids, and otherwise — items
// only the truth names, which the document orders and the map sorts — the
// same sources, the same items up to order, and the same cells, labels
// and truths by name.
func sameDataset(t *testing.T, doc string, got, want *Dataset) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if !reflect.DeepEqual(got.SourceNames, want.SourceNames) {
		t.Fatalf("%q: sources %q, encoding/json gives %q", doc, got.SourceNames, want.SourceNames)
	}
	assertSameData(t, want, got)
	for d, name := range want.ItemNames {
		if gd := findItem(got, name); gd < 0 || !reflect.DeepEqual(got.ValueNames[gd], want.ValueNames[d]) {
			t.Fatalf("%q: item %q has labels %q, encoding/json gives %q", doc, name, got.ValueNames[gd], want.ValueNames[d])
		}
	}
}

// checkScanDocument is the differential check behind TestScannerAgrees
// and FuzzReadJSON: whatever scanDocument answers itself, decodeDocument
// must accept and build the same dataset from.
func checkScanDocument(t *testing.T, doc string) (canonical bool) {
	t.Helper()
	b := NewBuilder()
	if !scanDocument(doc, b) {
		return false
	}
	ref, err := decodeDocument(doc)
	if err != nil {
		t.Fatalf("%q: the scanner accepts what encoding/json rejects: %v", doc, err)
	}
	sameDataset(t, doc, b.Build(), ref.Build())
	return true
}

// TestScannerAgrees runs every case through both shapes' scanners and
// pins which side of the edge a few of them fall on.
func TestScannerAgrees(t *testing.T) {
	for _, in := range jsonCases {
		checkScanDocument(t, in)
	}
	for in, want := range map[string]bool{
		jsonCases[0]:                              true,
		`{"truth":{"x":"1"}}`:                     true,
		`{"sources":["a"]}{"sources":["b"]}`:      true,
		`{"truth":{"x":"1","x":"2"}}`:             false,
		`{"items":["x"],"sources":["a"]}`:         false,
		`{"Sources":["a"]}`:                       false,
		`{"sources":["a"],"comment":"unknown"}`:   false,
		"{\"sources\":[\"raw\x01control\"]}":      false,
		`{"observations":[{"s":"a","d":null}]}`:   false,
		`{"observations":[{"s":"a"}],"truth":[]}`: false,
	} {
		if got := checkScanDocument(t, in); got != want {
			t.Errorf("scanDocument(%q) canonical = %v, want %v", in, got, want)
		}
	}
	// What it does answer, it answers the way the structs do.
	ds, err := ReadJSON(strings.NewReader(`{"observations":[{"s":"😀 \ud83d","d":"a\/b","v":"` + "\xff" + `"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := Records(ds); !reflect.DeepEqual(got, []Record{{"😀 �", "a/b", "�"}}) {
		t.Errorf("escapes, a lone surrogate and an invalid byte decoded to %q", got)
	}
}

// TestScannedNamesDoNotPinTheirBuffer: a Builder fed substrings of one
// big string keeps copies of the names it interns, not the string.
func TestScannedNamesDoNotPinTheirBuffer(t *testing.T) {
	body := `{"observations":[{"s":"source","d":"item","v":"value"}]}` + strings.Repeat(" ", 1<<16)
	obs, _, ok := ScanAppendBody(body)
	if !ok || len(obs) != 1 {
		t.Fatalf("ScanAppendBody = %v, %v", obs, ok)
	}
	b := NewBuilder()
	b.AddRecords(obs)
	ds := b.Build()
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	within := func(s string) bool { return addr(s) >= addr(body) && addr(s) < addr(body)+uintptr(len(body)) }
	if !within(obs[0].Source) {
		t.Fatal("the scanned record is not a substring of the body: the test checks nothing")
	}
	for _, name := range []string{ds.SourceNames[0], ds.ItemNames[0], ds.ValueNames[0][0]} {
		if within(name) {
			t.Errorf("interned name %q still points into the request body", name)
		}
	}
}
