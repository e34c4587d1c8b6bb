package main

import (
	"testing"
	"time"

	"copydetect/internal/cluster"
	"copydetect/internal/telemetry"
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
	if opt.cfg.ProbeEvery != time.Second || opt.cfg.ProbeTimeout != 0 || opt.cfg.Retries != 2 {
		t.Fatalf("probe defaults = %+v", opt.cfg)
	}
	if opt.cfg.Replication != 2 {
		t.Fatalf("default -replicas: cfg.Replication = %d, want 2", opt.cfg.Replication)
	}
	if opt.cfg.MirrorHighWater != cluster.DefaultMirrorHighWater {
		t.Fatalf("default -mirror-high-water: cfg.MirrorHighWater = %d, want %d",
			opt.cfg.MirrorHighWater, cluster.DefaultMirrorHighWater)
	}

	opt, err = parseFlags([]string{"-backends", "http://a:1,http://b:2", "-replicas", "1"})
	if err != nil || opt.cfg.Replication != 1 {
		t.Fatalf("-replicas 1: cfg.Replication = %d (err %v), want 1", opt.cfg.Replication, err)
	}

	opt, err = parseFlags([]string{
		"-addr", "127.0.0.1:9100", "-addr-file", "/tmp/gate.addr",
		"-backends", " http://a:1 , http://b:2,, http://c:3 ",
		"-probe-every", "250ms", "-probe-timeout", "100ms", "-retries", "5",
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
	if opt.cfg.ProbeEvery != 250*time.Millisecond || opt.cfg.ProbeTimeout != 100*time.Millisecond || opt.cfg.Retries != 5 {
		t.Fatalf("probe flags = %+v", opt.cfg)
	}

	// -retries 0 means zero retries; Config reserves 0 for "default", so
	// the flag must map it to the explicit "disabled" value.
	opt, err = parseFlags([]string{"-backends", "http://a:1", "-retries", "0"})
	if err != nil || opt.cfg.Retries != -1 {
		t.Fatalf("-retries 0: cfg.Retries = %d (err %v), want -1", opt.cfg.Retries, err)
	}

	// Same convention for -mirror-high-water: 0 disables the limit.
	opt, err = parseFlags([]string{"-backends", "http://a:1", "-mirror-high-water", "0"})
	if err != nil || opt.cfg.MirrorHighWater != -1 {
		t.Fatalf("-mirror-high-water 0: cfg.MirrorHighWater = %d (err %v), want -1", opt.cfg.MirrorHighWater, err)
	}
	opt, err = parseFlags([]string{"-backends", "http://a:1", "-mirror-high-water", "8"})
	if err != nil || opt.cfg.MirrorHighWater != 8 {
		t.Fatalf("-mirror-high-water 8: cfg.MirrorHighWater = %d (err %v), want 8", opt.cfg.MirrorHighWater, err)
	}

	for _, bad := range [][]string{
		nil,                        // no backends
		{"-backends", " , "},       // empty after trimming
		{"-backends", "not-a-url"}, // scheme missing
		{"-backends", "http://a:1", "-probe-every", "-1s"},
		{"-backends", "http://a:1", "-probe-timeout", "-1s"},
		{"-backends", "http://a:1", "-replicas", "0"},
		{"-backends", "http://a:1", "-mirror-high-water", "-1"},
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
