package lint

import (
	"go/token"
	"strings"
)

// ignorePrefix opens a suppression directive:
//
//	//hdlint:ignore <analyzer>[,<analyzer>] <reason>
//
// The directive silences the named analyzers' findings on its own line
// and on the line directly below it (so it works both as a trailing
// comment and as a comment above the offending statement). The reason is
// mandatory: a suppression that cannot say why it exists is itself a
// finding.
const ignorePrefix = "//hdlint:ignore"

type ignoreDirective struct {
	analyzers map[string]bool
	line      int // the directive's own line
	file      string
}

func (d ignoreDirective) covers(diag Diagnostic) bool {
	return d.file == diag.Pos.Filename &&
		(d.line == diag.Pos.Line || d.line == diag.Pos.Line-1) &&
		d.analyzers[diag.Analyzer]
}

// collectIgnores extracts every suppression directive in units. Malformed
// directives (no analyzer, unknown analyzer, or a missing reason) are
// returned as diagnostics under the pseudo-analyzer "hdlint" so a typo
// cannot silently disable a check.
func collectIgnores(units []*Package, fset *token.FileSet, known map[string]bool) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	seen := make(map[string]bool)
	malformed := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{
			Analyzer: "hdlint",
			Pos:      fset.Position(pos),
			Message:  msg,
		})
	}
	for _, u := range units {
		for _, f := range u.Files {
			fname := fset.Position(f.Pos()).Filename
			if seen[fname] {
				continue
			}
			seen[fname] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						malformed(c.Pos(), "malformed directive: want //hdlint:ignore <analyzer> <reason>")
						continue
					}
					if len(fields) < 2 {
						malformed(c.Pos(), "hdlint:ignore needs a reason: //hdlint:ignore "+fields[0]+" <why this finding is acceptable>")
						continue
					}
					names := make(map[string]bool)
					ok := true
					for _, name := range strings.Split(fields[0], ",") {
						if !known[name] {
							malformed(c.Pos(), "hdlint:ignore names unknown analyzer "+name)
							ok = false
							break
						}
						names[name] = true
					}
					if !ok {
						continue
					}
					dirs = append(dirs, ignoreDirective{
						analyzers: names,
						line:      fset.Position(c.Pos()).Line,
						file:      fname,
					})
				}
			}
		}
	}
	return dirs, bad
}

// Run executes every analyzer over every unit, applies //hdlint:ignore
// suppression, and returns the surviving findings sorted by position.
func Run(units []*Package, fset *token.FileSet, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }
	for _, u := range units {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    u.Files,
				Pkg:      u.Pkg,
				Info:     u.Info,
				report:   report,
			})
		}
	}

	// Directive names are validated against the full registry, not the
	// subset being run: a corpus test runs one analyzer, and an
	// //hdlint:ignore naming another one is well-formed, just inert.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ignores, bad := collectIgnores(units, fset, known)
	kept := raw[:0]
	for _, d := range raw {
		suppressed := false
		for _, ig := range ignores {
			if ig.covers(d) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return sortDiagnostics(append(kept, bad...))
}
