package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/estimate"
	"hdsampler/internal/exact"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/metrics"
	"hdsampler/internal/webform"
)

// vehiclesDB builds the standard Vehicles workload.
func vehiclesDB(n, k int, mode hiddendb.CountMode, seed int64) (*hiddendb.DB, error) {
	ds := datagen.Vehicles(n, seed)
	return hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
}

// marginalTV computes the total-variation distance between a sampled
// marginal and the database's true marginal for one attribute.
func marginalTV(db *hiddendb.DB, samples []hiddendb.Tuple, attr int) float64 {
	truth := metrics.Normalize(db.TrueMarginal(attr))
	got := make([]int, db.Schema().DomainSize(attr))
	for i := range samples {
		got[samples[i].Vals[attr]]++
	}
	return metrics.TVFromCounts(got, truth)
}

// Figure1 reproduces the paper's worked example: the query tree of the
// 4-tuple boolean database, each tuple's exact reach probability, and the
// effect of acceptance/rejection at the uniformizing C.
func Figure1(context.Context, Scale) (*Table, error) {
	s := hiddendb.MustSchema("fig1",
		hiddendb.BoolAttr("a1"), hiddendb.BoolAttr("a2"), hiddendb.BoolAttr("a3"))
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 1}}, // t1
		{Vals: []int{0, 1, 0}}, // t2
		{Vals: []int{0, 1, 1}}, // t3
		{Vals: []int{1, 1, 0}}, // t4
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 1})
	if err != nil {
		return nil, err
	}
	d, err := exact.WalkDist(db, nil, 1)
	if err != nil {
		return nil, err
	}
	cUniform := d.MinReach()
	uni := d.Summarize(cUniform)
	raw := d.Summarize(1)

	t := &Table{
		ID:     "figure1",
		Title:  "random walk over the Fig. 1 boolean database (k=1)",
		Header: []string{"tuple", "values", "reach P", "accept P (C=1/8)", "final P (C=1/8)"},
		Metrics: map[string]float64{
			"queries/walk":          d.QueriesPerWalk,
			"queries/sample(C=1/8)": uni.QueriesPerSample,
			"skew(C=1)":             raw.Skew,
			"skew(C=1/8)":           uni.Skew,
			"accept-rate(C=1/8)":    uni.AcceptPerWalk / uni.CandidatePerWalk,
		},
	}
	names := []string{"t1 (001)", "t2 (010)", "t3 (011)", "t4 (110)"}
	for i, name := range names {
		acc := 1.0
		if d.Reach[i] > cUniform {
			acc = cUniform / d.Reach[i]
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d%d%d", tuples[i].Vals[0], tuples[i].Vals[1], tuples[i].Vals[2]),
			fmtF(d.Reach[i]),
			fmtF(acc),
			fmtF(minF(d.Reach[i], cUniform)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("expected queries per walk %.3g; with C=1/8 every tuple's final probability is 1/8 (uniform), %.3g queries per accepted sample", d.QueriesPerWalk, uni.QueriesPerSample),
		"matches §2 of the demo paper: shallow tuples (t4 at depth 1) are reached most and must be rejected most")
	return t, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Figure2 reproduces the architecture demonstration: the incremental
// Generator→Processor→Output loop delivering samples continuously, and
// the kill switch stopping a run mid-flight.
func Figure2(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(4000, 20000)
	target := sc.pick(80, 200)
	db, err := vehiclesDB(n, 100, hiddendb.CountNone, 2)
	if err != nil {
		return nil, err
	}
	conn := history.New(formclient.NewLocal(db), history.Options{})
	gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 3, Order: core.OrderShuffle})
	if err != nil {
		return nil, err
	}
	acc := estimate.NewAccumulator(db.Schema(), 10)
	start := time.Now()
	var collected []hiddendb.Tuple
	var tally core.Tally

	t := &Table{
		ID:     "figure2",
		Title:  "incremental pipeline: histogram converges as samples stream in",
		Header: []string{"samples", "queries", "elapsed(ms)", "TV(make) vs truth"},
	}
	milestones := map[int]bool{target / 4: true, target / 2: true, 3 * target / 4: true, target: true}
	err = core.Draw(ctx, gen, nil, target, &tally, func(c *core.Candidate) {
		acc.Add(c.Tuple)
		collected = append(collected, c.Tuple)
		if milestones[acc.N()] {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", acc.N()),
				fmt.Sprintf("%d", tally.Counts().Queries),
				fmt.Sprintf("%d", time.Since(start).Milliseconds()),
				fmtF(marginalTV(db, collected, datagen.VehAttrMake)),
			})
		}
	})
	if err != nil {
		return nil, err
	}

	// Kill switch: a second run cancels its context from the output
	// stage after target/4 samples, and stops there.
	gen2, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 5, Order: core.OrderShuffle})
	if err != nil {
		return nil, err
	}
	kctx, kill := context.WithCancel(ctx)
	defer kill()
	got := 0
	err = core.Draw(kctx, gen2, nil, target, &core.Tally{}, func(*core.Candidate) {
		if got++; got == target/4 {
			kill()
		}
	})
	if got != target/4 || !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("kill switch: run stopped after %d samples with %v, want %d and context.Canceled", got, err, target/4)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, k=100, shuffled order, history cache on; second run stopped by the kill switch after %d samples", n, got))
	finalTV := marginalTV(db, collected, datagen.VehAttrMake)
	t.Metrics = map[string]float64{
		"samples":        float64(len(collected)),
		"final-tv(make)": finalTV,
		"queries/sample": float64(tally.Counts().Queries) / float64(len(collected)),
	}
	return t, nil
}

// Figure3 reproduces the attribute-settings exhibit: restricting the
// sampler to a subset of attributes (the Fig. 3 checkboxes) changes walk
// depth and cost but keeps the scoped marginals accurate.
func Figure3(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(4000, 20000)
	samples := sc.pick(150, 400)
	db, err := vehiclesDB(n, 100, hiddendb.CountNone, 7)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name  string
		attrs []int
	}{
		{"all 10 attributes", nil},
		{"make+price+condition", []int{datagen.VehAttrMake, datagen.VehAttrPrice, datagen.VehAttrCondition}},
		{"make only", []int{datagen.VehAttrMake}},
	}
	t := &Table{
		ID:      "figure3",
		Title:   "attribute scoping: cost and accuracy per selection",
		Header:  []string{"scope", "queries/sample", "restart rate", "TV(make) vs truth"},
		Metrics: map[string]float64{},
	}
	for i, cfg := range configs {
		conn := formclient.NewLocal(db)
		gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{
			Seed: int64(10 + i), Order: core.OrderShuffle, Attrs: cfg.attrs,
		})
		if err != nil {
			return nil, err
		}
		tuples, cs, err := core.Collect(ctx, gen, nil, samples)
		if err != nil {
			return nil, err
		}
		gs := gen.GenStats()
		restartRate := float64(gs.Restarts) / float64(gs.Walks)
		qps := float64(cs.Queries) / float64(len(tuples))
		t.Rows = append(t.Rows, []string{
			cfg.name, fmtF(qps), fmtPct(restartRate), fmtF(marginalTV(db, tuples, datagen.VehAttrMake)),
		})
		t.Metrics["queries/sample:"+cfg.name] = qps
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, k=100, %d samples per scope; narrower scopes walk shallower trees (make/model mismatches vanish) at the cost of coarser samples", n, samples))
	return t, nil
}

// Figure4 reproduces the headline exhibit: marginal histograms from
// HDSampler against ground truth and against the BRUTE-FORCE-SAMPLER
// reference, sampled through the live HTTP form interface with Google
// Base's k = 1000.
func Figure4(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(5000, 50000)
	steps := []int{sc.pick(50, 100), sc.pick(150, 500), sc.pick(400, 2000)}
	bruteSamples := sc.pick(60, 300)

	db, err := vehiclesDB(n, 1000, hiddendb.CountApprox, 4)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	defer srv.Close()

	conn := history.New(
		formclient.NewHTTP(srv.URL, formclient.HTTPOptions{Client: srv.Client()}),
		history.Options{})
	gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 11, Order: core.OrderShuffle})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "figure4",
		Title:  "marginals vs truth over the live HTML interface (k=1000)",
		Header: []string{"estimator", "samples", "queries", "TV(make)", "TV(price)", "TV(condition)"},
	}
	var collected []hiddendb.Tuple
	var lastTV float64
	for _, target := range steps {
		more, _, err := core.Collect(ctx, gen, nil, target-len(collected))
		if err != nil {
			return nil, err
		}
		collected = append(collected, more...)
		lastTV = marginalTV(db, collected, datagen.VehAttrMake)
		t.Rows = append(t.Rows, []string{
			"HDSampler/HTTP",
			fmt.Sprintf("%d", len(collected)),
			fmt.Sprintf("%d", gen.GenStats().Queries),
			fmtF(lastTV),
			fmtF(marginalTV(db, collected, datagen.VehAttrPrice)),
			fmtF(marginalTV(db, collected, datagen.VehAttrCondition)),
		})
	}

	// BRUTE-FORCE reference (long offline run in the paper): local
	// connector, reduced sample count — it is orders of magnitude slower.
	brute, err := core.NewBruteForce(ctx, formclient.NewLocal(db), core.BruteForceConfig{Seed: 12})
	if err != nil {
		return nil, err
	}
	bruteTuples, _, err := core.Collect(ctx, brute, nil, bruteSamples)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"BRUTE-FORCE ref",
		fmt.Sprintf("%d", len(bruteTuples)),
		fmt.Sprintf("%d", brute.GenStats().Queries),
		fmtF(marginalTV(db, bruteTuples, datagen.VehAttrMake)),
		fmtF(marginalTV(db, bruteTuples, datagen.VehAttrPrice)),
		fmtF(marginalTV(db, bruteTuples, datagen.VehAttrCondition)),
	})

	hdQueries := float64(gen.GenStats().Queries)
	bfQueries := float64(brute.GenStats().Queries)
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d behind a live HTML form; HDSampler scraped every answer (%d HTTP requests), approximate counts ignored as in the demo", n, conn.Stats().HTTPRequests),
		fmt.Sprintf("brute force needed %.0f queries/sample vs HDSampler's %.1f — the demo's point that brute force is impractical while its samples validate the histograms",
			bfQueries/float64(len(bruteTuples)), hdQueries/float64(len(collected))))
	t.Metrics = map[string]float64{
		"tv(make)@max-samples": lastTV,
		"hd-queries/sample":    hdQueries / float64(len(collected)),
		"brute-queries/sample": bfQueries / float64(len(bruteTuples)),
	}
	return t, nil
}
