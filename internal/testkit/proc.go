package testkit

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// childEnv marks a test binary that Start launched as a child.
const childEnv = "COPYDETECT_TESTKIT_CHILD"

var (
	buildMu  sync.Mutex
	buildDir string                // removed by Main
	built    = map[string]string{} // import path → executable
)

// Main is a TestMain body: in a test binary Start launched it runs
// run(os.Args[1:]) — the command's own main — and exits with its code;
// otherwise it runs the tests and removes what Build built.
func Main(m *testing.M, run func(args []string) int) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// Build compiles the module's command pkg (an import path) once per test
// binary and returns the executable; it skips t without a go tool.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if bin, ok := built[pkg]; ok {
		return bin
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	if buildDir == "" {
		dir, err := os.MkdirTemp("", "testkit-")
		if err != nil {
			t.Fatal(err)
		}
		buildDir = dir
	}
	bin := filepath.Join(buildDir, path.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	built[pkg] = bin
	return bin
}

// Proc is one child process serving HTTP at Base.
type Proc struct {
	Cmd    *exec.Cmd
	Base   string        // http://host:port
	Exited chan struct{} // closed once the child is reaped
	mu     sync.Mutex
	out    bytes.Buffer
}

// Write takes the child's output.
func (p *Proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

// Output is what the child has written to stdout and stderr so far.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Start launches bin with args plus -addr addr -addr-file F and returns
// once the child has written F, which it does when it serves. A bin of
// os.Args[0] is the test binary, which Main turns into the child. The
// output is kept, and teed to $CLUSTER_E2E_LOG_DIR/<name>.log when that
// is set; the child is killed when the test ends.
func Start(t testing.TB, name, bin, addr string, args ...string) *Proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	p := &Proc{Cmd: exec.Command(bin, append(args, "-addr", addr, "-addr-file", addrFile)...), Exited: make(chan struct{})}
	if bin == os.Args[0] {
		p.Cmd.Env = append(os.Environ(), childEnv+"=1")
	}
	var sink io.Writer = p
	if dir := os.Getenv("CLUSTER_E2E_LOG_DIR"); dir != "" && os.MkdirAll(dir, 0o777) == nil {
		if f, err := os.Create(filepath.Join(dir, name+".log")); err == nil {
			t.Cleanup(func() { f.Close() })
			sink = io.MultiWriter(p, f)
		}
	}
	p.Cmd.Stdout, p.Cmd.Stderr = sink, sink
	if err := p.Cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		_ = p.Cmd.Wait()
		close(p.Exited)
	}()
	t.Cleanup(p.Kill)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if raw, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(raw), ":") {
			p.Base = "http://" + strings.TrimSpace(string(raw))
			return p
		}
		select {
		case <-p.Exited:
			t.Fatalf("%s exited during startup; output:\n%s", name, p.Output())
		case <-time.After(5 * time.Millisecond):
		}
	}
	p.Kill()
	t.Fatalf("%s never came up; output:\n%s", name, p.Output())
	return nil
}

// Kill SIGKILLs the child — no grace, no flushing — and reaps it; it is
// safe to call twice.
func (p *Proc) Kill() {
	if p.Cmd.Process != nil {
		_ = p.Cmd.Process.Kill()
		<-p.Exited
	}
}
