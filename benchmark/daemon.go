package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one copydetectd child process on an ephemeral loopback
// port, with the flags an operator gets by default (-fsync=true
// -workers 0 -snapshot-every 1) plus a data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	exited  chan error
	execAt  time.Time
	logFile *os.File
}

// startDaemon execs bin on dataDir and waits until it serves. Its
// output is appended to logPath. The child is killed if this process
// dies, so a crashed benchmark leaves no daemon behind.
func startDaemon(ctx context.Context, bin, dataDir, logPath string) (*daemon, error) {
	addrFile := filepath.Join(dataDir, "addr")
	_ = os.Remove(addrFile)
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), execAt: time.Now(), logFile: logFile}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + string(addr)
			return d, nil
		}
		select {
		case err := <-d.exited:
			logFile.Close()
			return nil, fmt.Errorf("daemon exited before serving: %v", err)
		case <-ctx.Done():
			d.kill()
			return nil, fmt.Errorf("daemon did not serve: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the daemon down gracefully and reports how long the
// process took to exit after SIGTERM. A daemon still alive after
// shutdownGrace is killed and reported as an error.
func (d *daemon) stop() (time.Duration, error) {
	defer d.logFile.Close()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return 0, fmt.Errorf("daemon exit: %w", err)
		}
		return time.Since(start), nil
	case <-time.After(shutdownGrace):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return 0, fmt.Errorf("daemon ignored SIGTERM for %s; killed", shutdownGrace)
	}
}

const shutdownGrace = 30 * time.Second

// kill ends the daemon at once and waits for it; for clean-up paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.logFile.Close()
}

// peakRSS reads the child's high-water resident set from /proc, in MB.
func (d *daemon) peakRSS() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// buildDaemon compiles cmd/copydetectd from the checkout into binDir.
func buildDaemon(root, binDir string) (string, time.Duration, error) {
	bin := filepath.Join(binDir, "copydetectd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/copydetectd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/copydetectd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// tail returns the last n lines of a file, for showing a child's log
// when a run fails.
func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
