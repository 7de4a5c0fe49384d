package hdsampler

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/queryexec"
)

func TestDrawParallel(t *testing.T) {
	db, conn := localVehicles(t, 5000, 500, hiddendb.CountNone)
	ctx := context.Background()
	cfg := Config{Seed: 1, Slider: 1, ShuffleOrder: true, UseHistory: true, K: db.K()}
	tuples, stats, err := DrawParallel(ctx, conn, cfg, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 200 {
		t.Fatalf("drew %d, want 200", len(tuples))
	}
	if stats.Accepted != 200 || stats.Queries == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.QueriesSaved == 0 {
		t.Error("shared history cache saved nothing across workers")
	}
	// Sample quality: make marginal tracks truth loosely.
	truth := db.TrueMarginal(datagen.VehAttrMake)
	counts := make([]int, len(truth))
	for _, tu := range tuples {
		counts[tu.Vals[datagen.VehAttrMake]]++
	}
	for v := range truth {
		want := float64(truth[v]) / float64(db.Size())
		got := float64(counts[v]) / float64(len(tuples))
		if math.Abs(got-want) > 0.12 {
			t.Errorf("make[%d] = %g, truth %g", v, got, want)
		}
	}
}

func TestDrawParallelDegenerateCases(t *testing.T) {
	_, conn := localVehicles(t, 500, 100, hiddendb.CountNone)
	ctx := context.Background()
	cfg := Config{Seed: 2, Slider: 1}
	if _, _, err := DrawParallel(ctx, conn, cfg, 10, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	// workers > n falls back to sequential.
	tuples, _, err := DrawParallel(ctx, conn, cfg, 3, 8)
	if err != nil || len(tuples) != 3 {
		t.Fatalf("fallback draw: %d %v", len(tuples), err)
	}
}

func TestDrawParallelPropagatesError(t *testing.T) {
	// Count-weighted sampling against an interface without counts fails
	// in every worker; the error must surface.
	_, conn := localVehicles(t, 500, 100, hiddendb.CountNone)
	ctx := context.Background()
	cfg := Config{Seed: 3, Method: MethodCountWeighted}
	if _, _, err := DrawParallel(ctx, conn, cfg, 40, 4); err == nil {
		t.Fatal("expected error from count sampler without counts")
	}
}

func TestDrawParallelContextCancellation(t *testing.T) {
	_, conn := localVehicles(t, 5000, 500, hiddendb.CountNone)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := Config{Seed: 9, Slider: 1, UseHistory: true}
	tuples, stats, err := DrawParallel(ctx, conn, cfg, 10_000_000, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if len(tuples) >= 10_000_000 {
		t.Fatal("cancelled draw completed anyway")
	}
	if int(stats.Accepted) != len(tuples) {
		t.Fatalf("stats.Accepted = %d but %d tuples returned", stats.Accepted, len(tuples))
	}
}

func TestReplicaSetLiveProgressAndSamples(t *testing.T) {
	_, conn := localVehicles(t, 2000, 200, hiddendb.CountNone)
	ctx := context.Background()
	rs, err := NewReplicaSet(ctx, conn, Config{Seed: 7, Slider: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Workers() != 3 || rs.Schema() == nil {
		t.Fatalf("replica set malformed: workers=%d", rs.Workers())
	}
	tuples, stats, err := rs.Draw(ctx, 50)
	if err != nil || len(tuples) != 50 {
		t.Fatalf("draw: %d tuples, %v", len(tuples), err)
	}
	samples := rs.Samples()
	if len(samples) != 50 {
		t.Fatalf("provenance snapshot has %d samples", len(samples))
	}
	for i := range samples {
		if samples[i].Tuple.ID != tuples[i].ID {
			t.Fatal("Samples() and Draw() disagree on order")
		}
		if samples[i].Reach <= 0 || samples[i].Reach > 1 {
			t.Fatalf("sample %d reach = %g", i, samples[i].Reach)
		}
	}
	if pr := rs.Progress(); pr.Accepted != stats.Accepted || pr.Queries != stats.Queries {
		t.Fatalf("post-draw Progress %+v disagrees with Draw stats %+v", pr, stats)
	}
	// A ReplicaSet is one-shot.
	if _, _, err := rs.Draw(ctx, 1); err == nil {
		t.Fatal("second Draw accepted")
	}
}

// TestReplicaSetElapsedFreezesAtCompletion: once Draw returns, Progress
// reports the run's duration instead of a clock that keeps ticking under
// a status poller.
func TestReplicaSetElapsedFreezesAtCompletion(t *testing.T) {
	_, conn := localVehicles(t, 2000, 200, hiddendb.CountNone)
	ctx := context.Background()
	rs, err := NewReplicaSet(ctx, conn, Config{Seed: 41, Slider: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Draw(ctx, 5); err != nil {
		t.Fatal(err)
	}
	first := rs.Progress()
	if first.Elapsed <= 0 {
		t.Fatalf("finished draw has elapsed %v", first.Elapsed)
	}
	time.Sleep(30 * time.Millisecond)
	if second := rs.Progress(); second.Elapsed != first.Elapsed {
		t.Fatalf("elapsed kept ticking after completion: %v then %v", first.Elapsed, second.Elapsed)
	}
}

// TestDrawParallelBillsEveryQuery: every query a replica issues belongs
// to a candidate the draw processed, so without a history cache the bill
// equals the interface's own count plus the queries the execution layer
// coalesced. A replica that drew ahead of its acceptor would issue
// queries for candidates nobody bills.
func TestDrawParallelBillsEveryQuery(t *testing.T) {
	db, _ := localVehicles(t, 20000, 100, hiddendb.CountNone)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 40; seed++ {
			local := formclient.NewLocal(db)
			cfg := Config{Seed: seed, Slider: 0.6, SliderSet: true, K: db.K(), ShuffleOrder: true}
			_, stats, err := DrawParallel(ctx, local, cfg, 20, workers)
			if err != nil {
				t.Fatal(err)
			}
			if issued := local.Stats().Queries; issued+stats.QueriesCoalesced != stats.Queries {
				t.Errorf("workers %d, seed %d: local served %d + coalesced %d, billed %d",
					workers, seed, issued, stats.QueriesCoalesced, stats.Queries)
			}
		}
	}
}

// TestReplicaSetAdoptsInjectedCache runs two ReplicaSets over one Stack's
// conn: the second draws on the first one's answers through the shared
// cache.
func TestReplicaSetAdoptsInjectedCache(t *testing.T) {
	_, conn := localVehicles(t, 2000, 200, hiddendb.CountNone)
	ctx := context.Background()
	st := NewStack(conn, queryexec.Options{}, &history.Options{})
	cfg := Config{Seed: 11, Slider: 1}

	rs1, err := NewReplicaSet(ctx, st.Conn(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs1.Draw(ctx, 40); err != nil {
		t.Fatal(err)
	}
	warm := st.Cache().CacheStats()

	cfg.Seed = 12
	rs2, err := NewReplicaSet(ctx, st.Conn(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs2.Draw(ctx, 40); err != nil {
		t.Fatal(err)
	}
	if saved := st.Cache().CacheStats().Saved() - warm.Saved(); saved == 0 {
		t.Fatal("second replica set saw no savings from the shared cache")
	}
}

func TestCrawlFacade(t *testing.T) {
	ds := datagen.IIDBoolean(8, 100, 0.5, 4)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tuples, queries, err := Crawl(ctx, LocalConn(db), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != db.Size() {
		t.Fatalf("crawled %d of %d", len(tuples), db.Size())
	}
	if queries == 0 {
		t.Fatal("no queries counted")
	}
	// Budgeted crawl fails fast.
	if _, _, err := Crawl(ctx, LocalConn(db), 5); err == nil {
		t.Fatal("budget 5 should abort the crawl")
	}
}

func TestPopulationEstimate(t *testing.T) {
	ctx := context.Background()
	// With exact counts: one root query answers it.
	db, conn := localVehicles(t, 3000, 100, hiddendb.CountExact)
	est, ok := PopulationEstimate(ctx, conn, nil)
	if !ok || est.Value != float64(db.Size()) {
		t.Fatalf("estimate = %+v ok=%v, want exact %d", est, ok, db.Size())
	}
	// Without counts: fall back to sample collisions.
	dbNone, connNone := localVehicles(t, 300, 100, hiddendb.CountNone)
	s, err := New(ctx, connNone, Config{Seed: 5, Slider: 1, ShuffleOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := s.Draw(ctx, 250)
	if err != nil {
		t.Fatal(err)
	}
	est, ok = PopulationEstimate(ctx, connNone, samples)
	if !ok {
		t.Skip("no collisions with this seed; estimator undefined")
	}
	if est.Value < float64(dbNone.Size())/10 || est.Value > float64(dbNone.Size())*10 {
		t.Errorf("population estimate %g wildly off truth %d", est.Value, dbNone.Size())
	}
}
