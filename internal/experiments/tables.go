package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/estimate"
	"hdsampler/internal/exact"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/metrics"
)

// TopK reproduces the §2 list of real top-k limits — Google (1000), MSN
// Career (4000), Microsoft Solution Finder (500), MSN Stock Screener
// (25) — showing how the interface's k shapes walk cost and skew.
func TopK(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(5000, 50000)
	ds := datagen.Vehicles(n, 21)
	t := &Table{
		ID:      "topk",
		Title:   "effect of the interface's top-k limit (exact analysis)",
		Header:  []string{"k (site)", "queries/walk", "candidates/walk", "queries/candidate", "skew(C=1)", "unreachable"},
		Metrics: map[string]float64{},
	}
	sites := []struct {
		k    int
		site string
	}{
		{25, "MSN Stock Screener"},
		{500, "MS Solution Finder"},
		{1000, "Google Base"},
		{4000, "MSN Career"},
	}
	for _, s := range sites {
		db, err := hiddendb.New(ds.Schema, cloneTuples(ds.Tuples), nil, hiddendb.Config{K: s.k})
		if err != nil {
			return nil, err
		}
		d, err := exact.WalkDist(db, nil, s.k)
		if err != nil {
			return nil, err
		}
		sum := d.Summarize(1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%s)", s.k, s.site),
			fmtF(d.QueriesPerWalk),
			fmtF(sum.CandidatePerWalk),
			fmtF(d.QueriesPerWalk / sum.CandidatePerWalk),
			fmtF(sum.Skew),
			fmt.Sprintf("%d", d.Unreachable),
		})
		t.Metrics[fmt.Sprintf("queries/candidate@k=%d", s.k)] = d.QueriesPerWalk / sum.CandidatePerWalk
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, fixed schema order; larger k ends walks earlier (cheaper) but pools more tuples per valid node", n))
	return t, nil
}

// cloneTuples deep-copies a tuple slice so repeated hiddendb.New calls
// (which overwrite IDs) do not interfere.
func cloneTuples(in []hiddendb.Tuple) []hiddendb.Tuple {
	out := make([]hiddendb.Tuple, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// Tradeoff reproduces the §3.1 slider: sweeping the target reach
// probability C between provably-uniform and accept-everything, reporting
// the exact skew and query cost at each stop.
func Tradeoff(ctx context.Context, sc Scale) (*Table, error) {
	m := sc.pick(10, 14)
	n := sc.pick(500, 2000)
	k := 10
	ds := datagen.CorrelatedBoolean(m, n, 0.8, 31)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k})
	if err != nil {
		return nil, err
	}
	d, err := exact.WalkDist(db, nil, k)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tradeoff",
		Title:   "efficiency vs skew along the slider (exact analysis)",
		Header:  []string{"slider", "C", "accept rate", "queries/sample", "skew (CV)", "skew (reachable)", "TV vs uniform"},
		Metrics: map[string]float64{},
	}
	for _, pos := range []float64{0, 0.25, 0.5, 0.75, 1} {
		c := core.SliderC(db.Schema(), nil, k, pos)
		s := d.Summarize(c)
		acceptRate := 0.0
		if s.CandidatePerWalk > 0 {
			acceptRate = s.AcceptPerWalk / s.CandidatePerWalk
		}
		t.Rows = append(t.Rows, []string{
			fmtF(pos), fmt.Sprintf("%.3g", c), fmtPct(acceptRate),
			fmtF(s.QueriesPerSample), fmtF(s.Skew), fmtF(reachableSkew(d, c)), fmtF(s.TV),
		})
		t.Metrics[fmt.Sprintf("queries/sample@slider=%.2f", pos)] = s.QueriesPerSample
		t.Metrics[fmt.Sprintf("skew@slider=%.2f", pos)] = s.Skew
	}
	fixedSum := d.Summarize(1)
	t.Notes = append(t.Notes,
		fmt.Sprintf("correlated boolean m=%d n=%d k=%d, fixed order; slider 0 = provably uniform over reachable tuples (C = 1/(|space|·k)), slider 1 = raw walk", m, n, k),
		fmt.Sprintf("%d of %d tuples are hidden beyond the top-k of their fully-specified query and are unreachable by ANY interface sampler; 'skew (CV)' counts them, 'skew (reachable)' does not", fixedSum.Unreachable, n),
		"the demo's §3.1 claim: 'a highly uniform sample may take a long time... moderate skew may be obtained quite fast'")
	return t, nil
}

// reachableSkew computes the CV of the post-rejection selection
// distribution restricted to reachable tuples.
func reachableSkew(d *exact.Dist, c float64) float64 {
	var sel []float64
	for _, r := range d.Reach {
		if r <= 0 {
			continue
		}
		p := r
		if c > 0 && c < p {
			p = c
		}
		sel = append(sel, p)
	}
	return metrics.CV(sel)
}

// History reproduces the §3.2 optimization from [2]: the query-history
// cache answering repeated and inferable queries locally.
func History(ctx context.Context, sc Scale) (*Table, error) {
	m := sc.pick(12, 16)
	n := sc.pick(1000, 5000)
	k := 50
	samples := sc.pick(150, 500)
	ds := datagen.IIDBoolean(m, n, 0.5, 41)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: k, CountMode: hiddendb.CountExact})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "history",
		Title:   "query-history reuse: interface queries with and without the cache",
		Header:  []string{"configuration", "candidates", "queries sent", "queries saved", "savings"},
		Metrics: map[string]float64{},
	}
	for _, cfg := range []struct {
		name        string
		useCache    bool
		trustCounts bool
	}{
		{"no cache", false, false},
		{"cache (repeat + ancestor rules)", true, false},
		{"cache + count inference", true, true},
	} {
		local := formclient.NewLocal(db)
		var conn formclient.Conn = local
		var cache *history.Cache
		if cfg.useCache {
			cache = history.New(local, history.Options{TrustCounts: cfg.trustCounts})
			conn = cache
		}
		gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 42, Order: core.OrderFixed})
		if err != nil {
			return nil, err
		}
		_, cs, err := core.Collect(ctx, gen, nil, samples)
		if err != nil {
			return nil, err
		}
		sent := local.Stats().Queries
		saved := int64(0)
		if cache != nil {
			saved = cache.CacheStats().Saved()
		}
		total := sent + saved
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%d", cs.Candidates),
			fmt.Sprintf("%d", sent),
			fmt.Sprintf("%d", saved),
			fmtPct(float64(saved) / float64(total)),
		})
		t.Metrics["queries-sent:"+cfg.name] = float64(sent)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("iid boolean m=%d n=%d k=%d, %d candidates drawn with fixed order (restarts repeat prefixes, so the cache keeps paying)", m, n, k, samples),
		"reproduces [2]'s claim quoted in §3.2: never issue the same query twice, nor one whose answer is inferable")
	return t, nil
}

// BruteForceTable reproduces §3.4's justification for validating with —
// but never deploying — BRUTE-FORCE-SAMPLER.
func BruteForceTable(ctx context.Context, sc Scale) (*Table, error) {
	// Hidden databases are sparse: the cross-product space dwarfs the row
	// count (vehicles: 2.4e8 cells for tens of thousands of rows). Fix n
	// and grow m to show the exponential divergence.
	ms := []int{12, 16, 20}
	n := sc.pick(200, 400)
	k := 10
	t := &Table{
		ID:      "bruteforce",
		Title:   "brute force vs random walk: expected queries per sample (exact)",
		Header:  []string{"m (boolean attrs)", "|space|", "brute q/sample", "walk q/sample (C=min reach)", "walk q/sample (C=1)", "brute/walk ratio"},
		Metrics: map[string]float64{},
	}
	for _, m := range ms {
		ds := datagen.IIDBoolean(m, n, 0.5, int64(50+m))
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k})
		if err != nil {
			return nil, err
		}
		bf := exact.BruteForceCost(db)
		d, err := exact.WalkDist(db, nil, k)
		if err != nil {
			return nil, err
		}
		uniform := d.Summarize(d.MinReach())
		raw := d.Summarize(1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%.0f", db.Schema().SpaceSize()),
			fmtF(bf),
			fmtF(uniform.QueriesPerSample),
			fmtF(raw.QueriesPerSample),
			fmtF(bf / raw.QueriesPerSample),
		})
		t.Metrics[fmt.Sprintf("brute/walk@m=%d", m)] = bf / raw.QueriesPerSample
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d tuples, k=%d; brute force pays |space|/occupied-cells per sample and grows exponentially in m while the walk grows mildly", n, k))
	return t, nil
}

// CountLeverage reproduces the ICDE 2009 comparison the demo cites as [2]:
// what count reporting buys.
func CountLeverage(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(5000, 50000)
	k := 1000
	samples := sc.pick(100, 300)
	t := &Table{
		ID:      "count",
		Title:   "leveraging counts: cost and accuracy by interface count mode",
		Header:  []string{"sampler / counts", "queries/sample", "TV(make) vs truth", "restarts"},
		Metrics: map[string]float64{},
	}

	type cfg struct {
		name  string
		mode  hiddendb.CountMode
		noise float64
		run   func(db *hiddendb.DB) (q float64, tv float64, restarts int64, err error)
	}
	runWalker := func(db *hiddendb.DB) (float64, float64, int64, error) {
		gen, err := core.NewWalker(ctx, formclient.NewLocal(db), core.WalkerConfig{Seed: 61, Order: core.OrderShuffle})
		if err != nil {
			return 0, 0, 0, err
		}
		tuples, cs, err := core.Collect(ctx, gen, nil, samples)
		if err != nil {
			return 0, 0, 0, err
		}
		return float64(cs.Queries) / float64(len(tuples)), marginalTV(db, tuples, datagen.VehAttrMake), gen.GenStats().Restarts, nil
	}
	runCount := func(upc bool) func(db *hiddendb.DB) (float64, float64, int64, error) {
		return func(db *hiddendb.DB) (float64, float64, int64, error) {
			gen, err := core.NewCountWalker(ctx, formclient.NewLocal(db),
				core.CountWalkerConfig{Seed: 62, UseParentCount: upc})
			if err != nil {
				return 0, 0, 0, err
			}
			tuples, cs, err := core.Collect(ctx, gen, nil, samples)
			if err != nil {
				return 0, 0, 0, err
			}
			return float64(cs.Queries) / float64(len(tuples)), marginalTV(db, tuples, datagen.VehAttrMake), gen.GenStats().Restarts, nil
		}
	}
	configs := []cfg{
		{"random walk / counts ignored", hiddendb.CountNone, 0, runWalker},
		{"count-weighted / exact counts", hiddendb.CountExact, 0, runCount(false)},
		{"count-weighted + parent inference / exact", hiddendb.CountExact, 0, runCount(true)},
		{"count-weighted / approx ±30%", hiddendb.CountApprox, 0.3, runCount(false)},
	}
	for _, c := range configs {
		db, err := vehiclesDB(n, k, c.mode, 63)
		if err != nil {
			return nil, err
		}
		if c.mode == hiddendb.CountApprox {
			ds := datagen.Vehicles(n, 63)
			db, err = hiddendb.New(ds.Schema, ds.Tuples, nil,
				hiddendb.Config{K: k, CountMode: c.mode, CountNoise: c.noise, NoiseSeed: 9})
			if err != nil {
				return nil, err
			}
		}
		q, tv, restarts, err := c.run(db)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{c.name, fmtF(q), fmtF(tv), fmt.Sprintf("%d", restarts)})
		t.Metrics["queries/sample:"+c.name] = q
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, k=%d, %d samples; count-weighted pays per-child probes but never restarts and is exactly uniform with exact counts", n, k, samples),
		"the demo ignored Google Base's approximate counts (§3.1); the last row shows why the default is safe yet counts remain usable")
	return t, nil
}

// Aggregates reproduces the paper's motivating use case: "the percentage
// of Japanese cars in the dealer's inventory" plus COUNT/SUM/AVG (§3.4),
// with error shrinking as samples accumulate.
func Aggregates(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.pick(5000, 50000)
	k := 1000
	sizes := []int{50, 100}
	if sc == ScaleFull {
		sizes = []int{50, 100, 200, 400, 800, 1600}
	}
	db, err := vehiclesDB(n, k, hiddendb.CountExact, 71)
	if err != nil {
		return nil, err
	}
	conn := history.New(formclient.NewLocal(db), history.Options{})
	gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: 72, Order: core.OrderShuffle})
	if err != nil {
		return nil, err
	}

	// Ground truths.
	japanese := datagen.JapaneseMakeIndexes()
	trueJapanese := 0.0
	for _, idx := range japanese {
		c, _, _ := db.TrueAggregate(hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx}), -1)
		trueJapanese += float64(c)
	}
	trueJapanese /= float64(db.Size())
	usedPred := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1})
	trueUsedCount, trueUsedMileage, _ := db.TrueAggregate(usedPred, datagen.VehAttrMileage)
	toyotaPred := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0})
	_, _, trueToyotaAvg := db.TrueAggregate(toyotaPred, datagen.VehAttrPrice)

	t := &Table{
		ID:     "aggregates",
		Title:  "aggregate estimates vs truth as the sample grows",
		Header: []string{"samples", "%japanese err", "COUNT(used) err", "AVG(price|toyota) err", "SUM(mileage|used) err"},
	}
	var tuples []hiddendb.Tuple
	var lastErrs [4]float64
	for _, target := range sizes {
		more, _, err := core.Collect(ctx, gen, nil, target-len(tuples))
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, more...)
		jp := 0.0
		for _, idx := range japanese {
			jp += estimate.Proportion(tuples, hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx})).Value
		}
		countEst := estimate.Count(tuples, usedPred, db.Size())
		avgEst := estimate.Avg(tuples, toyotaPred, datagen.VehAttrPrice)
		sumEst := estimate.Sum(tuples, usedPred, datagen.VehAttrMileage, db.Size())
		lastErrs = [4]float64{
			math.Abs(jp-trueJapanese) / trueJapanese,
			math.Abs(countEst.Value-float64(trueUsedCount)) / float64(trueUsedCount),
			math.Abs(avgEst.Value-trueToyotaAvg) / trueToyotaAvg,
			math.Abs(sumEst.Value-trueUsedMileage) / trueUsedMileage,
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", len(tuples)),
			fmtPct(lastErrs[0]), fmtPct(lastErrs[1]), fmtPct(lastErrs[2]), fmtPct(lastErrs[3]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("vehicles n=%d, k=%d, raw walk (C=1) with shuffled order + history; truth: %%japanese=%.3f, COUNT(used)=%d, AVG(price|toyota)=%.0f, SUM(mileage|used)=%.3g",
			n, k, trueJapanese, trueUsedCount, trueToyotaAvg, trueUsedMileage),
		"reproduces the §1 claim that 'a very small number of uniform random samples can provide a quite accurate answer'")
	t.Metrics = map[string]float64{
		"err(%japanese)@max":  lastErrs[0],
		"err(count-used)@max": lastErrs[1],
	}
	return t, nil
}

// Scalability reproduces the abstract's "snapshot of the marginal
// distribution ... in a matter of minutes" claim across database sizes.
func Scalability(ctx context.Context, sc Scale) (*Table, error) {
	sizes := []int{2000, 10000}
	if sc == ScaleFull {
		sizes = []int{10000, 50000, 200000, 1000000}
	}
	samples := sc.pick(100, 500)
	k := 1000
	t := &Table{
		ID:      "scale",
		Title:   "wall time and queries to a fixed sample count vs database size",
		Header:  []string{"n (tuples)", "queries", "queries/sample", "wall(ms)", "TV(make)"},
		Metrics: map[string]float64{},
	}
	for i, n := range sizes {
		db, err := vehiclesDB(n, k, hiddendb.CountNone, int64(80+i))
		if err != nil {
			return nil, err
		}
		conn := history.New(formclient.NewLocal(db), history.Options{})
		gen, err := core.NewWalker(ctx, conn, core.WalkerConfig{Seed: int64(81 + i), Order: core.OrderShuffle})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tuples, cs, err := core.Collect(ctx, gen, nil, samples)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", cs.Queries),
			fmtF(float64(cs.Queries) / float64(len(tuples))),
			fmt.Sprintf("%d", wall.Milliseconds()),
			fmtF(marginalTV(db, tuples, datagen.VehAttrMake)),
		})
		t.Metrics[fmt.Sprintf("queries/sample@n=%d", n)] = float64(cs.Queries) / float64(len(tuples))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d samples, k=%d, raw walk + history, local connector (network latency excluded); query cost is driven by tree shape, not n — larger inventories are no harder", samples, k))
	return t, nil
}

// Ordering reproduces the 2007 paper's random-ordering optimization that
// HDSampler exposes through its tuning parameters.
func Ordering(ctx context.Context, sc Scale) (*Table, error) {
	m := sc.pick(10, 14)
	n := sc.pick(500, 2000)
	k := 10
	orders := sc.pick(10, 40)
	ds := datagen.CorrelatedBoolean(m, n, 0.9, 91)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k})
	if err != nil {
		return nil, err
	}
	fixed, err := exact.WalkDist(db, nil, k)
	if err != nil {
		return nil, err
	}
	shuffled, err := exact.AverageWalkDist(db, k, orders, 92)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ordering",
		Title:  "fixed vs per-walk shuffled attribute order (exact analysis)",
		Header: []string{"order", "skew(C=1)", "TV vs uniform", "dead-end rate", "queries/walk"},
	}
	for _, row := range []struct {
		name string
		d    *exact.Dist
	}{{"fixed (schema order)", fixed}, {fmt.Sprintf("shuffled (avg over %d orders)", orders), shuffled}} {
		s := row.d.Summarize(1)
		t.Rows = append(t.Rows, []string{
			row.name, fmtF(s.Skew), fmtF(s.TV), fmtPct(row.d.DeadEnd), fmtF(row.d.QueriesPerWalk),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("correlated boolean m=%d n=%d corr=0.9 k=%d; shuffling averages away order-specific reach imbalance", m, n, k))
	t.Metrics = map[string]float64{
		"skew-fixed":    fixed.Summarize(1).Skew,
		"skew-shuffled": shuffled.Summarize(1).Skew,
	}
	return t, nil
}
