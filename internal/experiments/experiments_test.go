package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

// smallRuns memoizes each experiment's small-scale run, so a test that
// pins an experiment's shape reads the table TestAllExperimentsRunSmall
// produced instead of running the experiment a second time.
var smallRuns sync.Map // experiment ID -> *smallRun

type smallRun struct {
	once sync.Once
	tbl  *Table
	err  error
}

// runSmall returns e's table at ScaleSmall, running e at most once per
// test binary.
func runSmall(e Experiment) (*Table, error) {
	v, _ := smallRuns.LoadOrStore(e.ID, new(smallRun))
	r := v.(*smallRun)
	r.once.Do(func() { r.tbl, r.err = e.Run(context.Background(), ScaleSmall) })
	return r.tbl, r.err
}

// TestAllExperimentsRunSmall executes every experiment at small scale and
// checks structural sanity: rows present, header arity respected, metrics
// populated, and the table renders.
func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := runSmall(e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
				}
			}
			if len(tbl.Metrics) == 0 {
				t.Error("no metrics")
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			out := buf.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, tbl.Header[0]) {
				t.Errorf("render missing pieces:\n%s", out)
			}
		})
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs = %d, All = %d", len(ids), len(All()))
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
}

// TestFigure1ExactNumbers pins the worked example's numbers: they are
// analytic and must never drift.
func TestFigure1ExactNumbers(t *testing.T) {
	tbl, err := Figure1(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Metrics["queries/walk"]; got != 1.75 {
		t.Errorf("queries/walk = %g, want 1.75", got)
	}
	if got := tbl.Metrics["queries/sample(C=1/8)"]; got != 3.5 {
		t.Errorf("queries/sample = %g, want 3.5", got)
	}
	if got := tbl.Metrics["skew(C=1/8)"]; got > 1e-12 {
		t.Errorf("uniform skew = %g, want 0", got)
	}
	if got := tbl.Metrics["skew(C=1)"]; got <= 0 {
		t.Errorf("raw skew = %g, want > 0", got)
	}
}

// TestTradeoffShape verifies the headline slider property: cost falls and
// skew rises monotonically as the slider moves toward efficiency.
func TestTradeoffShape(t *testing.T) {
	tbl, err := Tradeoff(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	positions := []string{"0", "0.25", "0.5", "0.75", "1"}
	prevCost := -1.0
	prevSkew := -1.0
	first := true
	for _, pos := range positions {
		cost := tbl.Metrics["queries/sample@slider="+padPos(pos)]
		skew := tbl.Metrics["skew@slider="+padPos(pos)]
		if !first {
			if cost > prevCost+1e-9 {
				t.Errorf("cost rose along slider at %s: %g > %g", pos, cost, prevCost)
			}
			if skew < prevSkew-1e-9 {
				t.Errorf("skew fell along slider at %s: %g < %g", pos, skew, prevSkew)
			}
		}
		prevCost, prevSkew, first = cost, skew, false
	}
}

func padPos(p string) string {
	switch p {
	case "0":
		return "0.00"
	case "0.25":
		return "0.25"
	case "0.5":
		return "0.50"
	case "0.75":
		return "0.75"
	default:
		return "1.00"
	}
}

// TestHistorySavesQueries pins the §3.2 claim: the cache strictly reduces
// queries sent.
func TestHistorySavesQueries(t *testing.T) {
	tbl, err := History(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	noCache := tbl.Metrics["queries-sent:no cache"]
	withCache := tbl.Metrics["queries-sent:cache (repeat + ancestor rules)"]
	if withCache >= noCache {
		t.Errorf("cache did not reduce queries: %g >= %g", withCache, noCache)
	}
}

// TestBruteForceDominated pins §3.4: brute force costs orders of magnitude
// more than the walk and the gap widens with m.
func TestBruteForceDominated(t *testing.T) {
	tbl, err := BruteForceTable(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	r12 := tbl.Metrics["brute/walk@m=12"]
	r20 := tbl.Metrics["brute/walk@m=20"]
	if r12 <= 1 {
		t.Errorf("brute force not dominated at m=12: ratio %g", r12)
	}
	if r20 <= r12 {
		t.Errorf("gap did not widen: m=20 ratio %g <= m=12 ratio %g", r20, r12)
	}
}

// TestOrderingReducesSkew pins the 2007 optimization's direction.
func TestOrderingReducesSkew(t *testing.T) {
	tbl, err := Ordering(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Metrics["skew-shuffled"] >= tbl.Metrics["skew-fixed"] {
		t.Errorf("shuffling did not reduce skew: %g >= %g",
			tbl.Metrics["skew-shuffled"], tbl.Metrics["skew-fixed"])
	}
}

// TestFigure4Shape pins the headline exhibit's direction: HDSampler's
// histogram approaches truth and costs far fewer queries per sample than
// brute force. It checks the shared small-scale run's table.
func TestFigure4Shape(t *testing.T) {
	e, ok := ByID("figure4")
	if !ok {
		t.Fatal("figure4 not registered")
	}
	tbl, err := runSmall(e)
	if err != nil {
		t.Fatal(err)
	}
	if tv := tbl.Metrics["tv(make)@max-samples"]; tv > 0.25 {
		t.Errorf("make marginal TV %g too far from truth", tv)
	}
	hd := tbl.Metrics["hd-queries/sample"]
	brute := tbl.Metrics["brute-queries/sample"]
	if brute < 10*hd {
		t.Errorf("brute force (%g q/s) should dwarf HDSampler (%g q/s)", brute, hd)
	}
}
