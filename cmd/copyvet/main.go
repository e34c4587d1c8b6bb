// Command copyvet runs the repo's contract analyzers (internal/analysis)
// over the module and prints file:line:col diagnostics, exiting nonzero
// if any contract is violated:
//
//	go run ./cmd/copyvet ./...          # whole module
//	go run ./cmd/copyvet -run detrange,hotalloc ./internal/core
//	go run ./cmd/copyvet -list
//
// The same analyzers also run inside `go test ./internal/analysis`, so
// plain tier-1 tests (and CI) fail on a violation; the CLI exists for
// fast local iteration over an analyzer subset or a package pattern.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"copydetect/internal/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if _, ok := err.(errFindings); ok {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "copyvet:", err)
		os.Exit(2)
	}
}

// errFindings distinguishes "contracts violated" (exit 1) from tool
// failure (exit 2).
type errFindings int

func (e errFindings) Error() string {
	return fmt.Sprintf("%d finding(s)", int(e))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("copyvet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}

	analyzers := analysis.Analyzers()
	if *runNames != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*runNames, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				return fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		return err
	}
	diags, err := analysis.Run(prog, analysis.DefaultConfig(), analyzers)
	if err != nil {
		return err
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(out, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(out, "copyvet: %d finding(s) in %d package(s) checked\n", len(diags), len(prog.Pkgs))
		return errFindings(len(diags))
	}
	return nil
}
