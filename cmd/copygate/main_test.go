package main

import (
	"testing"
	"time"

	"copydetect/internal/telemetry"
	"copydetect/internal/testkit"
)

// TestParseFlags exercises every documented flag and the backend-list
// validation.
func TestParseFlags(t *testing.T) {
	opt, err := parseFlags([]string{"-backends", "http://a:1,http://b:2"})
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if opt.addr != ":8378" || opt.addrFile != "" {
		t.Fatalf("defaults = %+v", opt)
	}
	if len(opt.cfg.Backends) != 2 || opt.cfg.Backends[0] != "http://a:1" || opt.cfg.Backends[1] != "http://b:2" {
		t.Fatalf("backends = %v", opt.cfg.Backends)
	}
	if opt.cfg.ProbeEvery != time.Second {
		t.Fatalf("probe defaults = %+v", opt.cfg)
	}
	if opt.cfg.Replication != 2 {
		t.Fatalf("default -replicas: cfg.Replication = %d, want 2", opt.cfg.Replication)
	}

	opt, err = parseFlags([]string{"-backends", "http://a:1,http://b:2", "-replicas", "1"})
	if err != nil || opt.cfg.Replication != 1 {
		t.Fatalf("-replicas 1: cfg.Replication = %d (err %v), want 1", opt.cfg.Replication, err)
	}

	opt, err = parseFlags([]string{
		"-addr", "127.0.0.1:9100", "-addr-file", "/tmp/gate.addr",
		"-backends", " http://a:1 , http://b:2,, http://c:3 ",
		"-probe-every", "250ms",
	})
	if err != nil {
		t.Fatalf("full flags: %v", err)
	}
	if opt.addr != "127.0.0.1:9100" || opt.addrFile != "/tmp/gate.addr" {
		t.Fatalf("full flags = %+v", opt)
	}
	if len(opt.cfg.Backends) != 3 || opt.cfg.Backends[2] != "http://c:3" {
		t.Fatalf("backends with whitespace = %v", opt.cfg.Backends)
	}
	if opt.cfg.ProbeEvery != 250*time.Millisecond {
		t.Fatalf("probe flags = %+v", opt.cfg)
	}

	for _, bad := range [][]string{
		nil,                        // no backends
		{"-backends", " , "},       // empty after trimming
		{"-backends", "not-a-url"}, // scheme missing
		{"-backends", "http://a:1", "-probe-every", "-1s"},
		{"-backends", "http://a:1", "-probe-timeout", "100ms"}, // half of -probe-every, at most 2 s
		{"-backends", "http://a:1", "-replicas", "0"},
		{"-nonsense"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid input", bad)
		}
	}
}

// TestHTTPServerTimeouts pins the slow-client protections on the
// listener: a server with no ReadHeaderTimeout can be held open forever
// by one trickled request line.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := telemetry.NewHTTPServer(nil)
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
}

// TestFlagTable: every flag the gateway registers has a row in the
// README's copygate flag table, and every row names a flag it
// registers.
func TestFlagTable(t *testing.T) {
	testkit.CheckFlagTable(t, "../../README.md", "copygate", func(args []string) error {
		_, err := parseFlags(args)
		return err
	})
}
