package hdsampler

// One benchmark per paper exhibit (`hdbench -list` names them; the
// README shows how to reproduce them). Each runs the corresponding
// experiment at small scale and reports its headline metrics, so `go test
// -bench=.` regenerates every table's numbers in miniature; `cmd/hdbench
// -scale full` prints the full tables. Micro-benchmarks for the hot
// substrate paths follow at the end.

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/datagen"
	"hdsampler/internal/experiments"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/telemetry"
)

// benchExperiment runs one experiment per iteration and reports its
// metrics through the benchmark framework.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(context.Background(), experiments.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, v := range tbl.Metrics {
		b.ReportMetric(v, strings.ReplaceAll(name, " ", "_"))
	}
}

func BenchmarkFigure1WalkExample(b *testing.B)      { benchExperiment(b, "figure1") }
func BenchmarkFigure2Pipeline(b *testing.B)         { benchExperiment(b, "figure2") }
func BenchmarkFigure3AttributeScoping(b *testing.B) { benchExperiment(b, "figure3") }
func BenchmarkFigure4Marginals(b *testing.B)        { benchExperiment(b, "figure4") }
func BenchmarkTableTopK(b *testing.B)               { benchExperiment(b, "topk") }
func BenchmarkTableTradeoff(b *testing.B)           { benchExperiment(b, "tradeoff") }
func BenchmarkTableHistorySavings(b *testing.B)     { benchExperiment(b, "history") }
func BenchmarkTableBruteForce(b *testing.B)         { benchExperiment(b, "bruteforce") }
func BenchmarkTableCountLeverage(b *testing.B)      { benchExperiment(b, "count") }
func BenchmarkTableAggregates(b *testing.B)         { benchExperiment(b, "aggregates") }
func BenchmarkTableScalability(b *testing.B)        { benchExperiment(b, "scale") }
func BenchmarkTableOrdering(b *testing.B)           { benchExperiment(b, "ordering") }
func BenchmarkTableCrawlVsSample(b *testing.B)      { benchExperiment(b, "crawl") }
func BenchmarkTableWeighted(b *testing.B)           { benchExperiment(b, "weighted") }

// --- substrate micro-benchmarks ---

func benchVehiclesDB(b *testing.B, n, k int, mode hiddendb.CountMode) *hiddendb.DB {
	b.Helper()
	ds := datagen.Vehicles(n, 1)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkHiddenDBExecute measures one conjunctive top-k query on a 50k
// tuple inventory.
func BenchmarkHiddenDBExecute(b *testing.B) {
	db := benchVehiclesDB(b, 50000, 1000, hiddendb.CountExact)
	q := hiddendb.MustQuery(
		hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0},
		hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// wireQuery is one query a draw sent its connector, with whether the
// walk asked for an overflowing answer's rows.
type wireQuery struct {
	q    hiddendb.Query
	rows bool
}

// recordConn records the queries that reach the connector below it.
type recordConn struct {
	Conn
	log []wireQuery
}

func (r *recordConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	r.log = append(r.log, wireQuery{q, formclient.RowsWanted(ctx)})
	return r.Conn.Execute(ctx, q)
}

// BenchmarkExecuteWalkMix measures DB.ExecuteRows on the walk's own query
// mix: the wire queries, with their rows-wanted flags, that the fixed-seed
// 200-sample draw of TestDrawCountersAndAllocs sends formclient.Local over
// 100k vehicles at k = 1000, replayed one query per op. Unlike
// BenchmarkExecuteIntersect's single skewed query, its intersections probe
// posting lists of every density, in an order no branch predictor learns.
func BenchmarkExecuteWalkMix(b *testing.B) {
	db, err := walkMixDB()
	if err != nil {
		b.Fatal(err)
	}
	rec := &recordConn{Conn: LocalConn(db)}
	drawWalkMix(b, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := rec.log[i%len(rec.log)]
		if _, err := db.ExecuteRows(w.q, w.rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkerCandidate measures one full drill-down (including
// restarts) against an in-process interface.
func BenchmarkWalkerCandidate(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountNone)
	ctx := context.Background()
	w, err := core.NewWalker(ctx, formclient.NewLocal(db), core.WalkerConfig{Seed: 2, Order: core.OrderShuffle})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Candidate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.GenStats().Queries)/float64(b.N), "queries/candidate")
}

// BenchmarkCountWalkerCandidate measures the count-weighted drill-down.
func BenchmarkCountWalkerCandidate(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountExact)
	ctx := context.Background()
	cw, err := core.NewCountWalker(ctx, formclient.NewLocal(db),
		core.CountWalkerConfig{Seed: 3, UseParentCount: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cw.Candidate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cw.GenStats().Queries)/float64(b.N), "queries/candidate")
}

// BenchmarkHistoryCachedExecute measures a cache hit through the history
// decorator.
func BenchmarkHistoryCachedExecute(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 100, hiddendb.CountNone)
	cache := history.New(formclient.NewLocal(db), history.Options{})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})
	if _, err := cache.Execute(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryParallelExecute measures contended cache-hit throughput:
// every goroutine hammers one shared history cache with a warm working set,
// the access pattern of a jobsvc worker pool sharing a per-host cache.
func BenchmarkHistoryParallelExecute(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountNone)
	cache := history.New(formclient.NewLocal(db), history.Options{})
	ctx := context.Background()
	var queries []hiddendb.Query
	for mk := 0; mk < 8; mk++ {
		for cond := 0; cond < 2; cond++ {
			q := hiddendb.MustQuery(
				hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: mk},
				hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: cond})
			if _, err := cache.Execute(ctx, q); err != nil {
				b.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	b.SetParallelism(4) // 4 x GOMAXPROCS goroutines: a busy worker pool
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cache.Execute(ctx, queries[i%len(queries)]); err != nil {
				// b.Fatal must not be called off the benchmark goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkHistoryDeepInference measures ancestor inference on deep
// queries (d = 12 predicates): a complete root answer is cached, every
// iteration infers a distinct depth-12 query's answer from it.
func BenchmarkHistoryDeepInference(b *testing.B) {
	const attrs = 24
	ds := datagen.IIDBoolean(attrs, 50, 0.5, 11)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100})
	if err != nil {
		b.Fatal(err)
	}
	cache := history.New(formclient.NewLocal(db), history.Options{MaxInferDepth: 12})
	ctx := context.Background()
	// k >= n: the root answer is complete, so every deeper query is
	// inferable from it (rule 2) — after scanning the ancestor space.
	if _, err := cache.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm := rng.Perm(attrs)[:12]
		sort.Ints(perm)
		q := hiddendb.EmptyQuery()
		for _, a := range perm {
			q = q.With(a, rng.Intn(2))
		}
		if _, err := cache.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	cs := cache.CacheStats()
	if cs.Issued > 1+int64(b.N)/100 {
		b.Fatalf("deep queries leaked past inference: issued %d of %d", cs.Issued, b.N)
	}
}

// BenchmarkEndToEndDraw measures the complete facade path: walk + history
// + rejection at a moderate slider, one accepted sample per iteration.
func BenchmarkEndToEndDraw(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, LocalConn(db), Config{Seed: 4, Slider: 0.9, K: 1000, UseHistory: true, ShuffleOrder: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, _, err := s.Draw(ctx, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWalkEndToEnd measures the full walk→history→exec→backend hot
// path per accepted sample, allocations included: the assembled sampler
// (random walk, shuffled order, history cache, execution layer) drawing
// from an in-process interface. The allocs/op figure is the PR 4
// zero-allocation target's headline metric.
func BenchmarkWalkEndToEnd(b *testing.B) {
	db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, LocalConn(db), Config{
		Seed: 7, Slider: 0.9, K: 1000, UseHistory: true, ShuffleOrder: true,
		Exec: ExecConfig{MaxInFlight: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the schema and cache top levels so iterations measure the
	// steady-state walk, not the first-touch misses.
	if _, _, err := s.Draw(ctx, 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := s.Draw(ctx, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTelemetryOverhead measures what instrumentation costs the
// BenchmarkWalkEndToEnd hot path: "off" runs with no observer installed
// (the baseline every earlier PR measured), "sampled-1pct" with the full
// telemetry stack attached — walk-duration histogram, slow-walk
// thresholds, and a tracer sampling 1% of draws. cmd/benchgate gates the
// pair, so a telemetry change that taxes the untraced path shows up as a
// regression of either sub-benchmark.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, obs *telemetry.WalkObserver) {
		db := benchVehiclesDB(b, 20000, 1000, hiddendb.CountNone)
		ctx := context.Background()
		s, err := New(ctx, LocalConn(db), Config{
			Seed: 7, Slider: 0.9, K: 1000, UseHistory: true, ShuffleOrder: true,
			Exec: ExecConfig{MaxInFlight: 64},
			Obs:  obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Draw(ctx, 10); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, _, err := s.Draw(ctx, b.N); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sampled-1pct", func(b *testing.B) {
		run(b, &telemetry.WalkObserver{
			Tracer:      telemetry.NewTracer(telemetry.TracerOptions{Rate: 0.01, Seed: 7, Capacity: 128}),
			Duration:    &telemetry.Histogram{},
			SlowWalk:    5 * time.Second,
			SlowQueries: 10000,
		})
	})
}
