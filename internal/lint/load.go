package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Root maps an import-path prefix onto a directory tree of Go source.
// The loader resolves an import "Prefix/sub/pkg" to Dir/sub/pkg. An empty
// Prefix maps every single-segment-rooted path under Dir, GOPATH-style —
// that is how analyzer test corpora under testdata/src import each other.
type Root struct {
	Prefix string
	Dir    string
}

// A Package is one type-checked analysis unit: a package's compiled
// files, or those plus its in-package _test.go files, or its external
// test package.
type Package struct {
	// Path is the unit's import path ("_test"-suffixed for external test
	// packages).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages without cmd/go: module (and
// corpus) packages load from source via Roots, standard-library imports
// resolve through go/importer's source importer. Everything is memoized,
// so a whole-tree run typechecks each stdlib package at most once.
//
// A Loader is single-goroutine; create one per run.
type Loader struct {
	Fset  *token.FileSet
	roots []Root

	std    types.ImporterFrom
	parsed map[string]*ast.File
	// imports memoizes the import view (compiled files only, no tests) of
	// root-resolved packages; inflight guards against import cycles.
	imports  map[string]*types.Package
	inflight map[string]bool
}

// NewLoader builds a loader over the given roots. Cgo is disabled
// globally: the source importer must see the pure-Go variant of packages
// like net, and this module compiles without cgo everywhere.
func NewLoader(roots ...Root) *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		roots:    roots,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		parsed:   make(map[string]*ast.File),
		imports:  make(map[string]*types.Package),
		inflight: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: root-mapped paths load from
// their mapped directory, everything else is delegated to the standard
// library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.resolve(path); ok {
		return l.importDir(path, dir)
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// resolve maps an import path onto a directory via the loader's roots.
func (l *Loader) resolve(path string) (string, bool) {
	for _, r := range l.roots {
		switch {
		case r.Prefix == "":
			dir := filepath.Join(r.Dir, filepath.FromSlash(path))
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				return dir, true
			}
		case path == r.Prefix:
			return r.Dir, true
		case strings.HasPrefix(path, r.Prefix+"/"):
			return filepath.Join(r.Dir, filepath.FromSlash(strings.TrimPrefix(path, r.Prefix+"/"))), true
		}
	}
	return "", false
}

// importDir typechecks a root-resolved package's compiled (non-test)
// files for use as an import, memoized.
func (l *Loader) importDir(path, dir string) (*types.Package, error) {
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.inflight[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.inflight[path] = true
	defer delete(l.inflight, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	l.imports[path] = pkg
	return pkg, nil
}

// check runs the typechecker over files, collecting every error.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("typecheck %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return pkg, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		fn := filepath.Join(dir, name)
		if f, ok := l.parsed[fn]; ok {
			files = append(files, f)
			continue
		}
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.parsed[fn] = f
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// LoadDir typechecks the package in dir as analysis units: the package
// with its in-package test files, plus (when present) its external test
// package. A directory with no buildable Go files yields no units and no
// error.
func (l *Loader) LoadDir(path, dir string) ([]*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	var units []*Package
	names := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	if len(names) > 0 {
		files, err := l.parseFiles(dir, names)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		pkg, err := l.check(path, files, info)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{Path: path, Files: files, Pkg: pkg, Info: info})
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := l.parseFiles(dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		pkg, err := l.check(path+"_test", files, info)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{Path: path + "_test", Files: files, Pkg: pkg, Info: info})
	}
	return units, nil
}

// LoadPatterns expands cmd/go-style package patterns ("./...",
// "./internal/lint", "./cmd/...") against the module rooted at the
// loader's first root and loads every match as analysis units.
// Directories named testdata, hidden directories, and nested modules
// (a go.mod below the root) are skipped, as cmd/go would.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(l.roots) == 0 || l.roots[0].Prefix == "" {
		return nil, fmt.Errorf("LoadPatterns needs a module root with an import-path prefix")
	}
	root := l.roots[0]
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		rec := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			rec = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		pat = strings.TrimPrefix(pat, "./")
		start := filepath.Join(root.Dir, filepath.FromSlash(pat))
		if !rec {
			dirs[start] = true
			continue
		}
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != root.Dir {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // nested module
				}
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var units []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(root.Dir, dir)
		if err != nil {
			return nil, err
		}
		path := root.Prefix
		if rel != "." {
			path = root.Prefix + "/" + filepath.ToSlash(rel)
		}
		us, err := l.LoadDir(path, dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module's path and root directory.
func ModuleRoot(dir string) (modPath, rootDir string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
			}
			return string(m[1]), dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
