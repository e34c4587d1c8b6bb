package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Two children overlapping on [30,40): the union [10,60) is
		// covered once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child wholly inside another adds nothing.
		{ID: 4, Parent: 1, Name: "c", Start: 35, End: 38},
		// A child running past its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130},
		// A grandchild is its parent's business, not the root's.
		{ID: 6, Parent: 2, Name: "e", Start: 15, End: 20},
		{ID: 7, Name: "lone", Start: 200, End: 250},
	}
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 3, 5: 40, 6: 5, 7: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	d := tr.time("child", root, func() {})
	tr.end(root)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if child := spans[1]; child.End-child.Start > spans[0].End-spans[0].Start || d < 0 {
		t.Errorf("child span %+v does not fit in root %+v", child, spans[0])
	}
	if got := tr.named("child"); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("named(child) = %+v", got)
	}
}

func TestNilTracerIsTracingOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	ran := false
	tr.time("y", id, func() { ran = true })
	if !ran || id != 0 {
		t.Errorf("nil tracer: ran=%t id=%d", ran, id)
	}
}
