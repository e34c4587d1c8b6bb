package testkit

import (
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// CheckFlagTable fails t unless the flags a command registers and the
// rows of its flag table in readme name the same set: an undocumented
// flag and a row for a flag that is gone both fail. parse is the
// command's flag parser; asked for -h it prints the usage of every flag
// it registers, which is how the registered set is read. The table is
// the first one headed "| Flag |" after readme's first line that runs
// "go run ./cmd/<cmd>"; a row documents every backquoted -flag in its
// first cell.
func CheckFlagTable(t testing.TB, readme, cmd string, parse func(args []string) error) {
	t.Helper()
	registered := usageFlags(t, parse)
	documented := tableFlags(t, readme, cmd)
	for f := range registered {
		if !documented[f] {
			t.Errorf("%s registers -%s, which has no row in the flag table of %s", cmd, f, readme)
		}
	}
	for f := range documented {
		if !registered[f] {
			t.Errorf("the flag table of %s has a row for -%s, which %s does not register", readme, f, cmd)
		}
	}
}

// usageFlags runs parse on -h with standard error captured (a FlagSet
// without its own output prints there) and reads the flag names off the
// usage lines, which start "  -name".
func usageFlags(t testing.TB, parse func(args []string) error) map[string]bool {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stderr := os.Stderr
	os.Stderr = w
	err = parse([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage := <-out
	r.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parse(-h) = %v, want flag.ErrHelp", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(usage), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags[strings.Fields(name)[0]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("parse(-h) printed no flag usage:\n%s", usage)
	}
	return flags
}

var flagCell = regexp.MustCompile("`-([A-Za-z0-9-]+)`")

// tableFlags reads the flags documented in cmd's flag table of readme.
func tableFlags(t testing.TB, readme, cmd string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	i := 0
	for i < len(lines) && !strings.Contains(lines[i], "go run ./cmd/"+cmd) {
		i++
	}
	for i < len(lines) && !strings.HasPrefix(lines[i], "| Flag |") {
		i++
	}
	if i == len(lines) {
		t.Fatalf("%s has no flag table for %s", readme, cmd)
	}
	flags := map[string]bool{}
	for _, row := range lines[i+2:] { // past the header and its rule
		if !strings.HasPrefix(row, "|") {
			break
		}
		for _, m := range flagCell.FindAllStringSubmatch(strings.Split(row, "|")[1], -1) {
			flags[m[1]] = true
		}
	}
	return flags
}
