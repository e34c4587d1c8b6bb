package main

import (
	"testing"

	"copydetect/internal/telemetry"
)

// TestParseFlags exercises every documented flag and the validation of
// priors and concurrency.
func TestParseFlags(t *testing.T) {
	opt, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if opt.addr != ":8377" || opt.cfg.Concurrency != 1 {
		t.Fatalf("defaults = %+v", opt)
	}
	if opt.cfg.Options.Workers < 1 {
		t.Fatalf("workers default %d, want >= 1 (per-CPU)", opt.cfg.Options.Workers)
	}
	if p := opt.cfg.Params; p.Alpha != 0.1 || p.S != 0.8 || p.N != 100 {
		t.Fatalf("default params = %+v", p)
	}

	if opt.cfg.DataDir != "" || !opt.cfg.Fsync || opt.cfg.SnapshotEvery != 1 {
		t.Fatalf("durability defaults = %+v", opt.cfg)
	}
	if opt.cfg.AppendHighWater != 0 {
		t.Fatalf("default -append-high-water: cfg.AppendHighWater = %d, want 0 (unbounded)", opt.cfg.AppendHighWater)
	}

	opt, err = parseFlags([]string{"-append-high-water", "64"})
	if err != nil || opt.cfg.AppendHighWater != 64 {
		t.Fatalf("-append-high-water 64: cfg.AppendHighWater = %d (err %v), want 64", opt.cfg.AppendHighWater, err)
	}

	opt, err = parseFlags([]string{
		"-addr", "127.0.0.1:9000", "-alpha", "0.2", "-s", "0.5", "-n", "40",
		"-workers", "3", "-concurrency", "2",
		"-data-dir", "/tmp/cdd", "-fsync=false", "-snapshot-every", "4",
		"-addr-file", "/tmp/cdd.addr",
	})
	if err != nil {
		t.Fatalf("full flags: %v", err)
	}
	if opt.addr != "127.0.0.1:9000" || opt.cfg.Options.Workers != 3 || opt.cfg.Concurrency != 2 {
		t.Fatalf("full flags = %+v", opt)
	}
	if p := opt.cfg.Params; p.Alpha != 0.2 || p.S != 0.5 || p.N != 40 {
		t.Fatalf("full-flag params = %+v", p)
	}
	if opt.cfg.DataDir != "/tmp/cdd" || opt.cfg.Fsync || opt.cfg.SnapshotEvery != 4 ||
		opt.addrFile != "/tmp/cdd.addr" {
		t.Fatalf("durability flags = %+v", opt)
	}

	for _, bad := range [][]string{
		{"-alpha", "0.7"},
		{"-s", "1.5"},
		{"-n", "1"},
		{"-concurrency", "0"},
		{"-snapshot-every", "0"},
		{"-append-high-water", "-1"},
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
