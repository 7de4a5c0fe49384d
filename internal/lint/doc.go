// Package lint implements hdlint, the repository's custom static-analysis
// suite: three intra-procedural analyzers that turn invariants the
// codebase otherwise states only in comments into build failures. Run it
// with
//
//	go run ./cmd/hdlint ./...
//
// (CI runs exactly that as a blocking job). The framework mirrors the
// shape of golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic —
// but is built purely on the standard library (go/ast, go/types,
// go/build, go/importer's source importer), preserving the module's
// zero-dependency, fully-offline build. Each analyzer sees one package
// at a time; none needs facts about another package.
//
// Invariants a runtime test can measure are checked there instead: the
// allocation budgets of the hot paths by testing.AllocsPerRun ceilings
// (CI runs them without -race), the nil-receiver contract of the
// telemetry instruments by TestNilReceiversAreNoOps, and data races by
// go test -race.
//
// # The analyzers
//
// resultimmut — hiddendb.Result and hiddendb.Tuple may alias storage
// shared with the database's immutable table and the history cache's
// entries, which every caller of the same query reads. Writes
// through them are legal only on values the function owns: ones built
// locally (composite literal, new, zero value) or obtained from Clone.
// Ownership is tracked per local, with Clone granting deep ownership
// (element arrays included) and local construction only shallow ownership
// (a fresh Result still shares its tuples' backing arrays).
//
// errtransient — sentinel errors (package-level Err* variables, EOF)
// compared with == or != (or matched in a switch) silently stop matching
// the moment any layer wraps them; the tree wraps its sentinels
// routinely, so the only correct comparison is errors.Is.
//
// ctxflow — context.Background() and context.TODO() are banned outside
// package main, init functions, and test files: everywhere else the
// context must be accepted from the caller, so cancellation and
// deadlines reach the wire. A function holding a ctx parameter that
// mints a fresh root anyway is flagged even in package main. Detachment
// points that are correct by design (a job outliving its submitting
// request) say so with an ignore and a reason.
//
// # Suppression
//
// One directive opts a line out:
//
//	//hdlint:ignore <analyzer>[,<analyzer>] <reason>
//
// which suppresses the named analyzers' findings on its own line and the
// line directly below. The reason is mandatory, and malformed directives
// (missing analyzer, unknown analyzer, missing reason) are themselves
// reported — a typo, or an ignore left behind by a removed analyzer,
// cannot sit silently in the tree. Suppressions double as documentation:
// every deliberate context detachment states why the new root is sound.
//
// # Testing
//
// Each analyzer has a corpus under testdata/src/<name> with flagging,
// non-flagging and suppressed cases, checked by the linttest harness
// against analysistest-style "// want" comments. Corpora are loaded
// GOPATH-style, so the resultimmut corpus imports a miniature stub
// "hiddendb" package rather than the real one.
package lint
