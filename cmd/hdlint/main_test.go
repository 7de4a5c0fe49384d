package main

import (
	"strings"
	"testing"
)

// TestListAnalyzers checks the -list inventory is exactly the suite.
func TestListAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("run -list = %d, stderr: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, ","), "resultimmut,errtransient,ctxflow"; got != want {
		t.Errorf("-list names %s, want %s:\n%s", got, want, out.String())
	}
}

// TestDedup loads the fixture module's package a both directly and as a
// dependency of b: its finding must print exactly once — the regression
// guard for double-reported diagnostics.
func TestDedup(t *testing.T) {
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"-C", "testdata/dedupmod", "./a", "./b"})
	if code != 1 {
		t.Fatalf("run = %d, want 1 (one finding)\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if n := strings.Count(out.String(), "context.Background"); n != 1 {
		t.Errorf("finding printed %d times, want exactly once:\n%s", n, out.String())
	}
}

// TestTreeIsClean runs the full suite over the repository — the same
// invocation CI gates on. Any finding here means either a real violation
// crept in or an analyzer grew a false positive; both block.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree analysis in -short mode")
	}
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"./..."})
	if code != 0 {
		t.Fatalf("hdlint over the tree = %d\n%s%s", code, out.String(), errb.String())
	}
}
