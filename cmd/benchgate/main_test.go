package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		ns     float64
		wantOK bool
	}{
		{"BenchmarkWalkEndToEnd-8   200   3052 ns/op   120 B/op   9 allocs/op", "BenchmarkWalkEndToEnd", 3052, true},
		{"BenchmarkExecuteIntersect-16  500  4912.5 ns/op", "BenchmarkExecuteIntersect", 4912.5, true},
		{"BenchmarkNoSuffix 10 99 ns/op", "BenchmarkNoSuffix", 99, true},
		{"PASS", "", 0, false},
		{"ok  	hdsampler	1.2s", "", 0, false},
		{"goos: linux", "", 0, false},
		{"BenchmarkBroken-8 x y", "", 0, false},
	}
	for _, c := range cases {
		name, ns, ok := parseLine(c.line)
		if ok != c.wantOK || name != c.name || ns != c.ns {
			t.Errorf("parseLine(%q) = (%q, %g, %v), want (%q, %g, %v)",
				c.line, name, ns, ok, c.name, c.ns, c.wantOK)
		}
	}
}

func TestVerdicts(t *testing.T) {
	stable := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v * 1.005} }
	// outlier is five tight samples plus one at 4×, as one descheduled
	// run on a shared CI runner produces.
	outlier := func(v float64) []float64 { return append(stable(v), v*0.995, v*4) }
	cases := []struct {
		name         string
		base, head   []float64
		fail, advise bool
	}{
		{"clean pass", stable(3000), stable(3050), false, false},
		{"improvement", stable(3000), stable(2000), false, false},
		{"confident regression", stable(3000), stable(4000), true, false},
		{"boundary under threshold", stable(3000), stable(3400), false, false},
		{"noisy head downgrades", stable(3000), []float64{3000, 6000, 2000, 4000}, false, true},
		{"noisy base downgrades", []float64{1000, 4000, 2500, 5000}, stable(6000), false, true},
		{"too few samples", []float64{3000, 3001}, stable(4500), false, true},
		// One outlier among six samples moves neither quartile, so it
		// cannot downgrade a confident verdict to an advisory.
		{"outlier still gates regression", stable(3000), outlier(4000), true, false},
		{"outlier still gates pass", outlier(3000), stable(3050), false, false},
		// Missing samples on either side are a hard failure, never an
		// advisory pass: a deleted or silently skipped benchmark must not
		// sail through the gate.
		{"missing base", nil, stable(3000), true, false},
		{"missing head", stable(3000), nil, true, false},
		{"missing both", nil, nil, true, false},
	}
	for _, c := range cases {
		v := verdict("BenchmarkX", c.base, c.head, 15, 10, 3)
		if v.fail != c.fail || v.advisory != c.advise {
			t.Errorf("%s: fail=%v advisory=%v (%s), want fail=%v advisory=%v",
				c.name, v.fail, v.advisory, v.note, c.fail, c.advise)
		}
	}
}

func TestExpandCoversSubBenchmarks(t *testing.T) {
	base := map[string][]float64{
		"BenchmarkExecuteIntersect/none":  {5000},
		"BenchmarkExecuteIntersect/exact": {19000},
		"BenchmarkWalkEndToEnd":           {3000},
		"BenchmarkExecuteIntersection":    {1}, // different benchmark, no '/'
	}
	head := map[string][]float64{
		"BenchmarkExecuteIntersect/none": {5100},
	}
	got := expand("BenchmarkExecuteIntersect", base, head)
	want := []string{"BenchmarkExecuteIntersect/exact", "BenchmarkExecuteIntersect/none"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("expand = %v, want %v", got, want)
	}
	if got := expand("BenchmarkWalkEndToEnd", base, head); len(got) != 1 || got[0] != "BenchmarkWalkEndToEnd" {
		t.Fatalf("plain benchmark expand = %v", got)
	}
	if got := expand("BenchmarkMissing", base, head); len(got) != 0 {
		t.Fatalf("missing benchmark expand = %v, want empty", got)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_baseline.json")
	head := map[string][]float64{
		"BenchmarkWalkEndToEnd":           {3052, 3010, 3100},
		"BenchmarkExecuteIntersect/none":  {5000, 5100, 4950},
		"BenchmarkExecuteIntersect/exact": {19000, 19500, 18800},
		"BenchmarkUnrelated":              {1},
	}
	if err := writeBaseline(path, head, "BenchmarkWalkEndToEnd,BenchmarkExecuteIntersect", "test note"); err != nil {
		t.Fatal(err)
	}
	bl, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Note != "test note" {
		t.Fatalf("note %q", bl.Note)
	}
	if len(bl.Benchmarks) != 3 {
		t.Fatalf("baseline kept %d benchmarks, want 3 (gate-filtered): %v", len(bl.Benchmarks), bl.Benchmarks)
	}
	if _, ok := bl.Benchmarks["BenchmarkUnrelated"]; ok {
		t.Fatal("ungated benchmark leaked into the baseline")
	}
	if m := median(bl.Benchmarks["BenchmarkWalkEndToEnd"]); m != 3052 {
		t.Fatalf("round-tripped median %g, want 3052", m)
	}
	// Updating with a gate name that has no samples must fail loudly —
	// an -update that silently drops a gated benchmark would let the
	// missing-name hard failure pass on the next run.
	if err := writeBaseline(path, head, "BenchmarkNoSuchThing", ""); err == nil {
		t.Fatal("writeBaseline accepted a gate name with no samples")
	}
}

func TestParseFileGroupsRepeatedCounts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	content := `goos: linux
BenchmarkWalkEndToEnd-8   200   3052 ns/op   120 B/op
BenchmarkWalkEndToEnd-8   200   3010 ns/op   120 B/op
BenchmarkWalkEndToEnd-8   200   3100 ns/op   120 B/op
BenchmarkExecuteIntersect-8  500  4900 ns/op
PASS
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["BenchmarkWalkEndToEnd"]); n != 3 {
		t.Fatalf("WalkEndToEnd samples = %d, want 3", n)
	}
	if n := len(got["BenchmarkExecuteIntersect"]); n != 1 {
		t.Fatalf("ExecuteIntersect samples = %d, want 1", n)
	}
	if m := median(got["BenchmarkWalkEndToEnd"]); m != 3052 {
		t.Fatalf("median = %g, want 3052", m)
	}
}
