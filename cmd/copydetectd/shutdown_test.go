package main

import (
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMWithUnusedConnection: a client connection that was dialed
// but never sent a request byte must not hold a graceful shutdown open.
// net/http's Shutdown counts such a connection as idle only once it is
// 5 s old, and an http.Transport leaves one behind whenever another idle
// connection serves the request it dialed for.
func TestSIGTERMWithUnusedConnection(t *testing.T) {
	// A -race child otherwise sleeps 1 s at exit to collect late reports.
	t.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	d := startDaemon(t, t.TempDir(), 1)
	// A served request proves the signal handler is armed: Serve arms it
	// before it starts serving.
	resp, err := http.Get(d.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	conn, err := net.Dial("tcp", strings.TrimPrefix(d.Base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(100 * time.Millisecond) // let the server accept it

	start := time.Now()
	if err := d.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.Exited:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon still running 15 s after SIGTERM")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("exit took %v after SIGTERM with one unused connection open, want under 1 s", elapsed)
	}
	if code := d.Cmd.ProcessState.ExitCode(); code != 0 {
		t.Errorf("exit code %d after SIGTERM, want 0; output:\n%s", code, d.Output())
	}
}
