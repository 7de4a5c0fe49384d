// Command hdlint is the repo's multichecker: it machine-checks three
// by-convention invariants the codebase relies on — Result immutability,
// errors.Is on sentinels, and context threading. It loads packages with
// the stdlib-only loader in internal/lint — no cmd/go, no external deps —
// and exits non-zero when any finding survives //hdlint:ignore
// suppression.
//
// Usage:
//
//	go run ./cmd/hdlint ./...
//	go run ./cmd/hdlint -list
//	go run ./cmd/hdlint -C some/module ./...
//
// See internal/lint/doc.go and the README's "Static analysis" section
// for what each analyzer enforces and how to suppress a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hdsampler/internal/lint"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("hdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	chdir := fs.String("C", "", "analyze the module containing this directory instead of the working directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	base := *chdir
	if base == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "hdlint:", err)
			return 2
		}
		base = wd
	}
	modPath, modRoot, err := lint.ModuleRoot(base)
	if err != nil {
		fmt.Fprintln(stderr, "hdlint:", err)
		return 2
	}

	loader := lint.NewLoader(lint.Root{Prefix: modPath, Dir: modRoot})
	units, err := loader.LoadPatterns(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "hdlint: load:", err)
		return 2
	}
	diags := lint.Run(units, loader.Fset, analyzers)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n",
			relFile(modRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "hdlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relFile renders a diagnostic filename relative to the module root with
// forward slashes — stable across machines, and what CI problem matchers
// and annotations need.
func relFile(modRoot, name string) string {
	if rel, err := filepath.Rel(modRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}
