package scenario

import (
	"context"
	"encoding/json"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
)

// smallConfig is a reduced grid for the focused tests: one dataset, the
// availability-only fault profiles, both samplers.
func smallConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		SamplesPerCell: 250,
		Workers:        4,
		Datasets:       DefaultDatasets(true)[:1],
		Faults: []faultform.Profile{
			{Name: "none"},
			{Name: "flaky", RateLimitProb: 0.08, RateLimitBurst: 2, TransientProb: 0.06, TransientBurst: 1},
		},
	}
}

// TestFullMatrix runs the complete default grid — the same cells the
// nightly gate sweeps — and asserts the acceptance properties: every cell
// completes without deadlock or sample loss, and every fault-free cell's
// sample passes the chi-square bias gate against the exact distribution.
func TestFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	rep, err := Run(context.Background(), Config{Seed: 42, SamplesPerCell: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid[0] < 3 || rep.Grid[1] < 3 || rep.Grid[2] < 2 {
		t.Fatalf("grid %v smaller than the required 3x3x2", rep.Grid)
	}
	if len(rep.Cells) != rep.Grid[0]*rep.Grid[1]*rep.Grid[2] {
		t.Fatalf("%d cells for grid %v", len(rep.Cells), rep.Grid)
	}
	gated, faulted := 0, 0
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.Live() {
			t.Errorf("%s/%s/%s: sample loss: %d/%d accepted, err=%q",
				c.Dataset, c.Fault, c.Sampler, c.Accepted, c.Requested, c.Err)
		}
		if c.BiasGated {
			gated++
			if !c.BiasOK {
				t.Errorf("%s/%s/%s: biased: chi2=%.1f df=%d p=%.3g",
					c.Dataset, c.Fault, c.Sampler, c.ChiSquare, c.ChiDF, c.ChiP)
			}
		}
		if c.Faults.Total() > 0 {
			faulted++
		}
		if c.Queries == 0 {
			t.Errorf("%s/%s/%s: zero queries", c.Dataset, c.Fault, c.Sampler)
		}
		// The connector's loop retries every blip within its budget, so
		// each blip the site served is one retried request.
		if c.QueriesRetried != c.Faults.Transients {
			t.Errorf("%s/%s/%s: %d retries for %d injected blips",
				c.Dataset, c.Fault, c.Sampler, c.QueriesRetried, c.Faults.Transients)
		}
	}
	if gated == 0 {
		t.Error("no cell was bias-gated; the matrix checks nothing")
	}
	if faulted == 0 {
		t.Error("no cell saw injected faults; the adversarial axis is dead")
	}
	if fs := rep.Failures(); len(fs) != 0 {
		t.Errorf("failures: %v", fs)
	}
}

// TestMatrixDeterministic pins the acceptance requirement that the grid
// replays identically from a seed: two runs agree on every cell's query
// bill, retries, acceptance count and bias statistics.
func TestMatrixDeterministic(t *testing.T) {
	ctx := context.Background()
	a, err := Run(ctx, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if ca.Dataset != cb.Dataset || ca.Fault != cb.Fault || ca.Sampler != cb.Sampler {
			t.Fatalf("cell %d identity differs", i)
		}
		if ca.Accepted != cb.Accepted || ca.Queries != cb.Queries || ca.QueriesRetried != cb.QueriesRetried || ca.C != cb.C {
			t.Errorf("%s/%s/%s: accepted/queries/retried/C differ: (%d,%d,%d,%g) vs (%d,%d,%d,%g)",
				ca.Dataset, ca.Fault, ca.Sampler, ca.Accepted, ca.Queries, ca.QueriesRetried, ca.C,
				cb.Accepted, cb.Queries, cb.QueriesRetried, cb.C)
		}
		if ca.ChiSquare != cb.ChiSquare || ca.KS != cb.KS {
			t.Errorf("%s/%s/%s: bias statistics differ: chi %g vs %g, ks %g vs %g",
				ca.Dataset, ca.Fault, ca.Sampler, ca.ChiSquare, cb.ChiSquare, ca.KS, cb.KS)
		}
	}
}

// TestMatrixDetectsContentBias shows the gate's teeth: a content-faulting
// interface (top-k jitter hides rows) measurably shifts the distribution,
// and the recorded chi-square statistic flags it — this is exactly the
// regression the nightly run would catch if the sampler (or the cache, or
// the execution layer) started silently dropping rows.
func TestMatrixDetectsContentBias(t *testing.T) {
	cfg := smallConfig(11)
	cfg.SamplesPerCell = 400
	cfg.Faults = []faultform.Profile{
		{Name: "none"},
		{Name: "jitter", TopKJitter: 0.6, Reorder: true},
	}
	cfg.Samplers = DefaultSamplers()[:1] // fast: the raw walk distribution
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clean, jittered *CellResult
	for i := range rep.Cells {
		switch rep.Cells[i].Fault {
		case "none":
			clean = &rep.Cells[i]
		case "jitter":
			jittered = &rep.Cells[i]
		}
	}
	if clean == nil || jittered == nil {
		t.Fatal("missing cells")
	}
	if !clean.BiasOK || !clean.BiasGated {
		t.Fatalf("clean cell failed its gate: p=%.3g", clean.ChiP)
	}
	if jittered.BiasGated {
		t.Fatal("content-fault cell must not be bias-gated (its distribution legitimately shifts)")
	}
	if !jittered.Live() {
		t.Fatalf("jittered cell lost samples: %d/%d", jittered.Accepted, jittered.Requested)
	}
	if jittered.ChiP >= clean.ChiP {
		t.Errorf("jitter did not register: clean p=%.3g, jittered p=%.3g", clean.ChiP, jittered.ChiP)
	}
}

// TestMatrixSurvivesRankedInterface pins liveness and bias on the
// ranked-result dataset specifically: a price-sorted interface is the
// regime where top-k truncation correlates with an attribute.
func TestMatrixSurvivesRankedInterface(t *testing.T) {
	cfg := Config{
		Seed:           5,
		SamplesPerCell: 250,
		Datasets: []DatasetSpec{{
			Name: "ranked", K: 10,
			Build: func(seed int64) *datagen.Dataset { return datagen.RankedListings(150, seed) },
		}},
		Faults: []faultform.Profile{{Name: "none"}},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.OK() {
			t.Errorf("%s/%s/%s failed: live=%v biasOK=%v p=%.3g err=%q",
				c.Dataset, c.Fault, c.Sampler, c.Live(), c.BiasOK, c.ChiP, c.Err)
		}
	}
}

// TestMatrixCancellation propagates a dead context instead of hanging.
func TestMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallConfig(3)); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestReportJSONRoundTrips keeps the -matrix artifact machine-readable.
func TestReportJSONRoundTrips(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(rep.Cells) || back.Seed != rep.Seed {
		t.Fatal("report did not round-trip")
	}
}
