// Command docscheck enforces the repo's documentation invariants in CI:
//
//   - Every Go package (internal/, cmd/, examples/, and the root) has a
//     package comment — the one-paragraph contract ARCHITECTURE.md's
//     per-package table is built from. A package whose doc comment lives
//     in any one of its files passes; a package with none fails.
//   - Relative markdown links in the given documents resolve to files
//     that actually exist, so ARCHITECTURE.md and README.md cannot rot
//     as files move. External links (with a URL scheme) and pure
//     fragment links are not checked.
//
// Usage:
//
//	docscheck [-root .] [doc.md ...]
//
// Exit status: 0 (clean), 1 (findings), 2 (usage or I/O error).
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root to scan for Go packages")
	flag.Parse()
	findings, err := checkPackageComments(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, doc := range flag.Args() {
		fs, err := checkLinks(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("docscheck: clean")
}

// skipDirs are directories that never contain checked packages.
var skipDirs = map[string]bool{
	".git": true, "testdata": true, ".github": true,
}

// checkPackageComments walks root for Go packages and reports every
// package directory whose non-test files all lack a package doc comment.
func checkPackageComments(root string) ([]string, error) {
	dirs := make(map[string][]string) // dir -> non-test .go files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		dirs[dir] = append(dirs[dir], path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for dir, files := range dirs {
		documented := false
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			findings = append(findings, fmt.Sprintf("%s: package has no package comment in any of its %d file(s)", dir, len(files)))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// linkRE matches inline markdown links; image links share the syntax and
// are checked the same way.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks reports relative links in doc that do not resolve to an
// existing file or directory (relative to the document's own directory).
func checkLinks(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	base := filepath.Dir(doc)
	var findings []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment, links within the document
			}
			joined := filepath.Join(base, target)
			if rel, err := filepath.Rel(base, joined); err == nil && strings.HasPrefix(rel, "..") {
				continue // escapes the tree: a GitHub web-UI path (badges), not a file
			}
			if _, err := os.Stat(joined); err != nil {
				findings = append(findings, fmt.Sprintf("%s:%d: broken relative link %q", doc, i+1, m[1]))
			}
		}
	}
	return findings, nil
}
