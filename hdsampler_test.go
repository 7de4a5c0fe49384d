package hdsampler

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

func localVehicles(t *testing.T, n, k int, mode hiddendb.CountMode) (*hiddendb.DB, Conn) {
	t.Helper()
	ds := datagen.Vehicles(n, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db, LocalConn(db)
}

func TestFacadeRandomWalkDraw(t *testing.T) {
	db, conn := localVehicles(t, 3000, 200, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 1, Slider: 0.9, K: db.K(), UseHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := s.Draw(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 100 {
		t.Fatalf("drew %d", len(tuples))
	}
	if stats.Accepted != 100 || stats.Queries == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if s.C() >= 1 || s.C() <= 0 {
		t.Fatalf("slider-derived C = %g", s.C())
	}
	for _, tu := range tuples {
		if len(tu.Vals) != db.Schema().NumAttrs() {
			t.Fatal("malformed sample")
		}
	}
}

func TestFacadeZeroConfigIsFastest(t *testing.T) {
	_, conn := localVehicles(t, 500, 100, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.C() != 1 {
		t.Fatalf("zero config C = %g, want 1 (accept everything)", s.C())
	}
	tuples, stats, err := s.Draw(ctx, 20)
	if err != nil || len(tuples) != 20 {
		t.Fatalf("draw: %d, %v", len(tuples), err)
	}
	if stats.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0", stats.Rejected)
	}
}

func TestFacadeBruteForce(t *testing.T) {
	// Tiny space so brute force terminates fast.
	ds := datagen.IIDBoolean(6, 40, 0.5, 3)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := New(ctx, LocalConn(db), Config{Method: MethodBruteForce, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := s.Draw(ctx, 30)
	if err != nil || len(tuples) != 30 {
		t.Fatalf("draw: %d %v", len(tuples), err)
	}
	if stats.Rejected != 0 {
		t.Fatal("brute force must not reject")
	}
	if s.C() != 1 {
		t.Fatal("brute force should accept everything")
	}
}

func TestFacadeCountWeighted(t *testing.T) {
	db, conn := localVehicles(t, 2000, 500, hiddendb.CountExact)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{
		Method: MethodCountWeighted, Seed: 5, UseParentCount: true,
		UseHistory: true, TrustCounts: true, K: db.K(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := s.Draw(ctx, 50)
	if err != nil || len(tuples) != 50 {
		t.Fatalf("draw: %d %v", len(tuples), err)
	}
	saved, issued := s.HistoryStats()
	if issued == 0 {
		t.Fatal("no queries issued?")
	}
	if saved == 0 {
		t.Error("history cache saved nothing on repeated drill-downs")
	}
	if stats.QueriesSaved != saved {
		t.Error("stats disagree with HistoryStats")
	}
}

func TestFacadeOverHTTP(t *testing.T) {
	ds := datagen.Vehicles(1500, 6)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 300, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	defer srv.Close()
	ctx := context.Background()
	s, err := New(ctx, DialWithClient(srv.URL, srv.Client()), Config{Seed: 7, Slider: 1, UseHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, err := s.Draw(ctx, 40)
	if err != nil || len(tuples) != 40 {
		t.Fatalf("draw over HTTP: %d %v", len(tuples), err)
	}
	// Aggregate helpers work end-to-end: average price is plausible.
	avg := AvgEstimate(tuples, hiddendb.EmptyQuery(), datagen.VehAttrPrice)
	if avg.N == 0 || avg.Value < 500 || avg.Value > 120000 {
		t.Fatalf("avg price estimate = %+v", avg)
	}
}

func TestFacadePipelineKillSwitch(t *testing.T) {
	_, conn := localVehicles(t, 1000, 200, hiddendb.CountNone)
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	rs, err := NewReplicaSet(ctx, conn, Config{Seed: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tuples []Tuple
		err    error
	}
	done := make(chan result, 1)
	go func() {
		tuples, _, err := rs.Draw(ctx, 1_000_000)
		done <- result{tuples, err}
	}()
	// Watch the live counters until 10 samples are in, then cancel: the
	// kill switch.
	for rs.Progress().Accepted < 10 {
		select {
		case r := <-done:
			t.Fatalf("draw ended before the kill switch: %d samples, %v", len(r.tuples), r.err)
		case <-time.After(time.Millisecond):
		}
	}
	kill()
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	if pr := rs.Progress(); pr.Accepted != int64(len(r.tuples)) || len(rs.Samples()) != len(r.tuples) {
		t.Fatalf("stopped run: %d tuples, %d samples, progress %+v", len(r.tuples), len(rs.Samples()), pr)
	}
}

func TestFacadeEstimators(t *testing.T) {
	db, conn := localVehicles(t, 20000, 1000, hiddendb.CountExact)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 9, Slider: 1, ShuffleOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, err := s.Draw(ctx, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Marginal histogram over make roughly tracks the truth.
	ms := Marginals(db.Schema(), tuples)
	truth := db.TrueMarginal(datagen.VehAttrMake)
	total := 0
	for _, c := range truth {
		total += c
	}
	props := ms[datagen.VehAttrMake].Proportions()
	for v := range truth {
		want := float64(truth[v]) / float64(total)
		if math.Abs(props[v]-want) > 0.08 {
			t.Errorf("make[%d] proportion %g vs truth %g", v, props[v], want)
		}
	}
	// The paper's headline aggregate: percentage of Japanese cars.
	japaneseProp := 0.0
	for _, idx := range datagen.JapaneseMakeIndexes() {
		pred := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: idx})
		japaneseProp += ProportionEstimate(tuples, pred).Value
	}
	trueJapanese := 0.0
	for _, idx := range datagen.JapaneseMakeIndexes() {
		trueJapanese += float64(truth[idx]) / float64(total)
	}
	if math.Abs(japaneseProp-trueJapanese) > 0.08 {
		t.Errorf("japanese share %g vs truth %g", japaneseProp, trueJapanese)
	}
	// COUNT estimate scales by population.
	pred := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1})
	ce := CountEstimate(tuples, pred, db.Size())
	trueCount, _, _ := db.TrueAggregate(pred, -1)
	if math.Abs(ce.Value-float64(trueCount))/float64(trueCount) > 0.25 {
		t.Errorf("count estimate %g vs truth %d", ce.Value, trueCount)
	}
	se := SumEstimate(tuples, pred, datagen.VehAttrPrice, db.Size())
	_, trueSum, _ := db.TrueAggregate(pred, datagen.VehAttrPrice)
	if math.Abs(se.Value-trueSum)/trueSum > 0.3 {
		t.Errorf("sum estimate %g vs truth %g", se.Value, trueSum)
	}
}

func TestMethodString(t *testing.T) {
	if MethodRandomWalk.String() != "random-walk" ||
		MethodBruteForce.String() != "brute-force" ||
		MethodCountWeighted.String() != "count-weighted" {
		t.Error("method names wrong")
	}
	if Method(9).String() != "method(9)" {
		t.Error("unknown method rendering wrong")
	}
	_, conn := localVehicles(t, 50, 10, hiddendb.CountNone)
	if _, err := New(context.Background(), conn, Config{Method: Method(9)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestAdaptiveQuantileFacade(t *testing.T) {
	db, conn := localVehicles(t, 3000, 500, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 21, AdaptiveQuantile: 0.5, AdaptiveWarmup: 50, K: db.K()})
	if err != nil {
		t.Fatal(err)
	}
	if s.C() != 0 {
		t.Fatalf("C before calibration = %g, want 0", s.C())
	}
	tuples, stats, err := s.Draw(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 60 {
		t.Fatalf("drew %d", len(tuples))
	}
	if s.C() <= 0 || s.C() > 1 {
		t.Fatalf("calibrated C = %g", s.C())
	}
	// Warmup candidates count as rejections.
	if stats.Rejected < 50 {
		t.Fatalf("rejected = %d, want >= warmup", stats.Rejected)
	}
}

func TestExplicitCOverridesSlider(t *testing.T) {
	_, conn := localVehicles(t, 300, 100, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 10, C: 0.001, Slider: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.C()-0.001) > 1e-15 {
		t.Fatalf("C = %g, want 0.001", s.C())
	}
}

// QueriesSaved must be a per-call delta like every other Stats field; a
// second Draw reporting the cache's cumulative savings was the regression.
func TestDrawStatsSavedIsPerCallDelta(t *testing.T) {
	_, conn := localVehicles(t, 2000, 500, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 3, UseHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := s.Draw(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := s.Draw(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	totalSaved, _ := s.HistoryStats()
	if st1.QueriesSaved+st2.QueriesSaved != totalSaved {
		t.Fatalf("per-call savings %d + %d must sum to the cache total %d",
			st1.QueriesSaved, st2.QueriesSaved, totalSaved)
	}
	if st1.QueriesSaved == 0 || st2.QueriesSaved == 0 {
		t.Fatalf("both draws should save queries (got %d, %d)", st1.QueriesSaved, st2.QueriesSaved)
	}
}

// DrawWeighted shares Draw's windowing contract.
func TestDrawWeightedSavedIsPerCallDelta(t *testing.T) {
	_, conn := localVehicles(t, 2000, 500, hiddendb.CountNone)
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 4, UseHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := s.DrawWeighted(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := s.DrawWeighted(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	totalSaved, _ := s.HistoryStats()
	if st1.QueriesSaved+st2.QueriesSaved != totalSaved {
		t.Fatalf("per-call savings %d + %d must sum to the cache total %d",
			st1.QueriesSaved, st2.QueriesSaved, totalSaved)
	}
	if st2.QueriesSaved == 0 {
		t.Fatal("second weighted draw repeats hot paths and should save queries")
	}
}
