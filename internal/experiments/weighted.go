package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/estimate"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
)

// WeightedEstimation compares three ways to answer an aggregate from the
// same candidate stream (identical query bill): naive (pretend raw
// candidates are uniform — the mistake the acceptance/rejection module
// exists to prevent), rejection (discard candidates until near-uniform,
// then estimate), and Horvitz–Thompson weighting (use every candidate,
// weighted by 1/reach) — the unbiased-estimation upgrade from the count-
// leveraging line.
func WeightedEstimation(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(5000, 50000)
	k := 1000
	candidates := sc.pick(500, 1500)
	db, err := vehiclesDB(n, k, hiddendb.CountNone, 101)
	if err != nil {
		return nil, err
	}
	conn := history.New(formclient.NewLocal(db), history.Options{})
	gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 102, Order: core.OrderShuffle})
	if err != nil {
		return nil, err
	}

	// Ground truth.
	japanese := datagen.JapaneseMakeIndexes()
	trueJP := 0.0
	for _, idx := range japanese {
		c, _, _ := db.TrueAggregate(hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx}), -1)
		trueJP += float64(c)
	}
	usedPred := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1})
	trueUsed, _, _ := db.TrueAggregate(usedPred, -1)

	// One candidate stream shared by all three estimators.
	ws := &estimate.WeightedSet{}
	var tuples []hiddendb.Tuple
	var cands []*core.Candidate
	err = core.Draw(ctx, gen, nil, candidates, &core.Tally{}, func(c *core.Candidate) {
		ws.Add(c.Tuple, c.Reach, c.Restarts)
		tuples = append(tuples, c.Tuple)
		cands = append(cands, c)
	})
	if err != nil {
		return nil, err
	}
	queries := gen.GenStats().Queries

	// Rejection pass over the same stream, with C self-calibrated to the
	// 25th percentile of observed reaches — a mid-slider setting that
	// adapts to the database instead of requiring ground truth.
	reaches := make([]float64, len(cands))
	for i, c := range cands {
		reaches[i] = c.Reach
	}
	sort.Float64s(reaches)
	cTarget := reaches[len(reaches)/4]
	rej := core.NewRejector(cTarget, 103)
	var accepted []hiddendb.Tuple
	for _, c := range cands {
		if rej.Accept(c) {
			accepted = append(accepted, c.Tuple)
		}
	}

	jpOf := func(samples []hiddendb.Tuple) float64 {
		p := 0.0
		for _, idx := range japanese {
			p += estimate.Proportion(samples, hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx})).Value
		}
		return p * float64(db.Size())
	}
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / want }

	htJP := 0.0
	for _, idx := range japanese {
		htJP += ws.Count(hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx})).Value
	}

	t := &Table{
		ID:     "weighted",
		Title:  "same candidate stream, three estimators (COUNT japanese / COUNT used)",
		Header: []string{"estimator", "samples used", "japanese err", "COUNT(used) err"},
	}
	rows := []struct {
		name    string
		used    int
		jpErr   float64
		usedErr float64
	}{
		{"naive (raw candidates as uniform)", len(tuples),
			relErr(jpOf(tuples), trueJP),
			relErr(estimate.Count(tuples, usedPred, db.Size()).Value, float64(trueUsed))},
		{fmt.Sprintf("rejection (C = p25 of reach, %d kept)", len(accepted)), len(accepted),
			relErr(jpOf(accepted), trueJP),
			relErr(estimate.Count(accepted, usedPred, db.Size()).Value, float64(trueUsed))},
		{"Horvitz-Thompson (all candidates, 1/reach)", len(tuples),
			relErr(htJP, trueJP),
			relErr(ws.Count(usedPred).Value, float64(trueUsed))},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, fmt.Sprintf("%d", r.used), fmtPct(r.jpErr), fmtPct(r.usedErr)})
	}
	popEst := ws.Population()
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, k=%d; one stream of %d candidates (%d interface queries) feeds all three estimators", n, k, candidates, queries),
		fmt.Sprintf("the HT set also estimates the database size without counts: %.0f ± %.0f (truth %d)", popEst.Value, popEst.StdErr, db.Size()),
		"naive inherits the walk's systematic skew; rejection is unbiased but discards candidates; HT is unbiased and uses everything at the cost of weight variance")
	t.Metrics = map[string]float64{
		"ht-japanese-err":    rows[2].jpErr,
		"naive-japanese-err": rows[0].jpErr,
		"ht-population-err":  relErr(popEst.Value, float64(db.Size())),
	}
	return t, nil
}
