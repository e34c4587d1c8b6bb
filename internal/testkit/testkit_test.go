package testkit

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"copydetect/internal/dataset"
)

func TestMain(m *testing.M) { Main(m, serve) }

// serve is the child TestStartAndWire spawns: a stand-in daemon that
// creates any dataset and answers every view converged, with a round
// ordinal counting the requests.
func serve(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	addr, addrFile := fs.String("addr", "", ""), fs.String("addr-file", "", "")
	if fs.Parse(args) != nil {
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil || os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644) != nil {
		return 1
	}
	fmt.Println("child: serving")
	var rounds atomic.Int64
	_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusCreated)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"converged": true, "path": r.URL.Path, "round": rounds.Add(1)})
	}))
	return 1
}

// TestStartAndWire: the test binary re-executes itself as a child that
// serves on an address file; the wire client reads its views, a mask
// drops the round ordinal, and Kill reaps the child.
func TestStartAndWire(t *testing.T) {
	p := Start(t, "child", os.Args[0], "127.0.0.1:0")
	c := &Client{T: t, HTTP: &http.Client{Timeout: 10 * time.Second}, Base: p.Base, Name: "x"}
	c.Must(http.MethodPut, "", nil, http.StatusCreated)
	if d := Diff(c.Published("round"), c.Published("round")); d != "" {
		t.Errorf("masked views differ: %s", d)
	}
	if d := Diff(c.Published(), c.Published()); d != `["/copies"]["round"]: got 0x401c000000000000 (7), want 0x4024000000000000 (10)` {
		t.Errorf("unmasked views: diff %q, want the round ordinal of /copies", d)
	}
	if v := c.Published("round")["/truth"]; v["path"] != "/v1/datasets/x/truth" {
		t.Errorf("/truth view = %v", v)
	}
	p.Kill()
	p.Kill() // twice is safe
	if _, open := <-p.Exited; open || !strings.Contains(p.Output(), "child: serving") {
		t.Errorf("child not reaped, or output %q", p.Output())
	}
}

type pairRec struct {
	mant  float64
	exp   int32
	flags byte
	_     [3]byte
}

type pair struct{ CTo float64 }

func TestDiff(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) + 1)
	padded := pairRec{mant: 1, exp: 2, flags: 3}
	(*[unsafe.Sizeof(padded)]byte)(unsafe.Pointer(&padded))[unsafe.Sizeof(padded)-1] = 9
	type deep struct {
		A struct {
			B struct{ C struct{ Timer, Count int } }
		}
	}
	var d3a, d3b deep
	d3a.A.B.C.Timer, d3b.A.B.C.Timer = 1, 2
	type result struct{ Copy struct{ Pairs []pair } }
	var changed, unchanged result
	changed.Copy.Pairs, unchanged.Copy.Pairs = make([]pair, 20), make([]pair, 20)
	changed.Copy.Pairs[17].CTo = 0.5
	for _, c := range []struct {
		name      string
		got, want any
		masks     []string
		diff      string
		departs   bool // from reflect.DeepEqual, on purpose
	}{
		{"+0 vs -0", 0.0, math.Copysign(0, -1), nil, "value: got 0x0000000000000000 (0), want 0x8000000000000000 (-0)", true},
		{"same NaN", nan, nan, nil, "", true},
		{"other NaN", nan, otherNaN, nil, fmt.Sprintf("value: got 0x%016x (NaN), want 0x%016x (NaN)", math.Float64bits(nan), math.Float64bits(otherNaN)), false},
		{"unexported float", pairRec{mant: 1}, pairRec{mant: 2}, nil, "mant: got 0x3ff0000000000000 (1), want 0x4000000000000000 (2)", false},
		{"unexported int", pairRec{exp: 1}, pairRec{exp: 2}, nil, "exp: got 1, want 2", false},
		{"blank field skipped", padded, pairRec{mant: 1, exp: 2, flags: 3}, nil, "", true},
		{"depth 3", d3a, d3b, nil, "A.B.C.Timer: got 1, want 2", false},
		{"mask at depth 3", d3a, d3b, []string{"Timer"}, "", false},
		{"map keys", map[string]int{"a": 1, "c": 3}, map[string]int{"a": 1, "b": 2}, nil, `["b"]: got absent, want 2`, false},
		{"JSON key mask", map[string]any{"round": 1.0, "v": "x"}, map[string]any{"round": 2.0, "v": "x"}, []string{"round"}, "", false},
		{"JSON types", map[string]any{"v": []any{1.0}}, map[string]any{"v": []any{"1"}}, nil, `["v"][0]: got type float64, want type string`, false},
		{"nil vs empty slice", []int(nil), []int{}, nil, "value: got nil, want non-nil len 0", false},
		{"nil vs empty map", map[int]int{}, map[int]int(nil), nil, "value: got non-nil len 0, want nil", false},
		{"lengths", []int{1, 2}, []int{1, 2, 3}, nil, "value: got len 2, want len 3", false},
		{"path", changed, unchanged, nil, "Copy.Pairs[17].CTo: got 0x3fe0000000000000 (0.5), want 0x0000000000000000 (0)", false},
		{"nil pointer", (*pair)(nil), &pair{}, nil, "value: got nil, want non-nil", false},
		{"equal pointers", &pair{1}, &pair{1}, nil, "", false},
		{"strings", "a", "b", nil, `value: got "a", want "b"`, false},
		{"bools", []bool{true}, []bool{false}, nil, "[0]: got true, want false", false},
	} {
		if got := Diff(c.got, c.want, c.masks...); got != c.diff {
			t.Errorf("%s: Diff = %q, want %q", c.name, got, c.diff)
		}
		if deq := reflect.DeepEqual(c.got, c.want); c.masks == nil && !c.departs && deq != (c.diff == "") {
			t.Errorf("%s: reflect.DeepEqual = %v, Diff = %q", c.name, deq, c.diff)
		}
	}
}

// TestPresets pins the ids, seeds and scales internal/core's goldens are
// keyed by, checks that a preset generates the same dataset twice, and
// that batches cut a record stream into equal contiguous parts.
func TestPresets(t *testing.T) {
	var got []string
	for _, pr := range Lookup("book-cs", "stock-1day", "book-full", "stock-2wk") {
		got = append(got, fmt.Sprintf("%s %s seed %d x%v long=%v", pr.ID, pr.Config.Name, pr.Config.Seed, pr.Scale, pr.Long))
	}
	if d := Diff(got, []string{
		"book-cs Book-CS seed 11 x0.04 long=false",
		"stock-1day Stock-1day seed 12 x0.01 long=false",
		"book-full Book-full seed 13 x0.004 long=true",
		"stock-2wk Stock-2wk seed 14 x0.004 long=true",
	}); d != "" {
		t.Errorf("golden-keyed presets changed: %s", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("Lookup of an unknown id did not panic")
		}
	}()
	ForEach(t, Lookup("stock-1day"), func(t *testing.T, ds *dataset.Dataset) {
		if d := Diff(ds, Generate(t, Lookup("stock-1day")[0])); d != "" || ds.NumObservations() == 0 {
			t.Errorf("%d observations, regenerated: %s", ds.NumObservations(), d)
		}
		recs := dataset.Records(ds)
		batches := Batches(recs[:10], 3)
		if d := Diff(batches, [][]dataset.Record{recs[:4], recs[4:8], recs[8:10]}); d != "" {
			t.Errorf("batches: %s", d)
		}
	})
	Lookup("book-cs", "no-such-preset")
}

// flagRecorder collects the errors CheckFlagTable reports instead of
// failing the test.
type flagRecorder struct {
	testing.TB
	errs []string
}

func (r *flagRecorder) Helper() {}
func (r *flagRecorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestCheckFlagTable: an undocumented flag and a row for an unregistered
// one are each reported; the table read is the one after the command's
// usage line, not an earlier one.
func TestCheckFlagTable(t *testing.T) {
	readme := t.TempDir() + "/README.md"
	doc := "| Flag | Meaning |\n|---|---|\n| `-x` | another command's |\n\n" +
		"```\ngo run ./cmd/demo [-a] [-b 1]\n```\n\n" +
		"| Flag | Default | Meaning |\n|---|---|---|\n| `-a`, `-b` | off, 1 | documented |\n| `-c` | — | gone |\n\nprose\n"
	if err := os.WriteFile(readme, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args []string) error {
		fs := flag.NewFlagSet("demo", flag.ContinueOnError)
		fs.Bool("a", false, "documented")
		fs.Int("b", 1, "documented")
		fs.String("d", "", "undocumented")
		return fs.Parse(args)
	}
	r := &flagRecorder{TB: t}
	CheckFlagTable(r, readme, "demo", parse)
	sort.Strings(r.errs)
	if d := Diff(r.errs, []string{
		"demo registers -d, which has no row in the flag table of " + readme,
		"the flag table of " + readme + " has a row for -c, which demo does not register",
	}); d != "" {
		t.Errorf("reported: %s", d)
	}
}
