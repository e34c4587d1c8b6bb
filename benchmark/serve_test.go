package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestReaderChargesStallsFromDueTime pins the open-loop accounting: a
// poll (GET copies, then GET truth) is due at start + i/rate whatever
// the previous one did, its latency runs from that due time, and how
// late it was sent is kept.
func TestReaderChargesStallsFromDueTime(t *testing.T) {
	const (
		every = 20 * time.Millisecond
		stall = 150 * time.Millisecond
	)
	var served atomic.Int32
	paths := make(chan string, 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall) // the copies request of poll 2 stalls the connection
		}
		select {
		case paths <- req.URL.Path:
		default:
		}
	}))
	defer srv.Close()

	r := &run{
		d:      &daemon{base: srv.URL},
		client: srv.Client(),
	}
	stop := make(chan struct{})
	time.AfterFunc(stall+10*every, func() { close(stop) })
	log := r.reader(context.Background(), stop, "x", every)

	if len(log.errs) != 0 {
		t.Fatalf("reader errors: %v", log.errs)
	}
	if len(log.lat) < 6 || len(log.lat) != len(log.late) {
		t.Fatalf("reader completed %d polls (%d lateness samples), want at least 6", len(log.lat), len(log.late))
	}
	if got := <-paths; got != "/v1/datasets/x/copies" {
		t.Errorf("first request hit %s, want the copies endpoint", got)
	}
	if got := <-paths; got != "/v1/datasets/x/truth" {
		t.Errorf("second request hit %s, want the truth endpoint", got)
	}
	if log.lat[2] < stall {
		t.Errorf("the stalled poll took %v, want at least the stall %v", log.lat[2], stall)
	}
	// Poll 3 was due one interval after poll 2 but could not be sent
	// until the stall ended: it is late by about stall-every, and that
	// wait is part of its latency even though the server answered it at
	// once.
	if atLeast := stall - every - 10*time.Millisecond; log.late[3] < atLeast {
		t.Errorf("poll after the stall was sent %v late, want at least %v", log.late[3], atLeast)
	}
	for i := range log.lat {
		if log.lat[i] < log.late[i] {
			t.Errorf("poll %d: latency %v is less than its lateness %v; latency must run from the due time", i, log.lat[i], log.late[i])
		}
	}
	// The schedule does not slip: later polls catch up instead of each
	// waiting a full interval after the previous one.
	if log.late[5] >= log.late[3] {
		t.Errorf("lateness did not shrink after the stall: poll 3 %v, poll 5 %v", log.late[3], log.late[5])
	}
}
