package hdsampler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/telemetry"
	"hdsampler/internal/webform"
)

// countingTarget serves a vehicles DB behind the web form, counting every
// wire request the samplers actually land on the site.
func countingTarget(t *testing.T, n, k int, opts webform.Options) (*hiddendb.DB, *httptest.Server, *atomic.Int64) {
	t.Helper()
	ds := datagen.Vehicles(n, 31)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	inner := webform.NewServer(db, opts)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return db, srv, &hits
}

// TestDrawParallelExecOverAPI drives an 8-replica draw through the
// execution layer, under a fixed cap, over the HTML connector (the name
// predates it) with the history cache disabled: every sample arrives, and both the
// replicas' logical query bill and the site's wire traffic are nonzero.
func TestDrawParallelExecOverAPI(t *testing.T) {
	_, srv, hits := countingTarget(t, 2000, 250, webform.Options{})
	conn := DialWithClient(srv.URL, srv.Client())
	cfg := Config{
		Seed:         3,
		ShuffleOrder: true,
		Exec:         ExecConfig{MaxInFlight: 8},
	}
	tuples, stats, err := DrawParallel(context.Background(), conn, cfg, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 64 {
		t.Fatalf("drew %d tuples, want 64", len(tuples))
	}
	if stats.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	if wire := hits.Load() - 1; wire <= 0 { // minus the schema fetch
		t.Fatalf("site saw %d query requests", wire)
	}
}

// TestDrawParallelAggregateRateBounded proves the politeness guarantee:
// 8 concurrent replicas sharing one execution layer together respect the
// configured per-host budget, where the old per-goroutine sleep allowed
// N× the configured rate.
func TestDrawParallelAggregateRateBounded(t *testing.T) {
	const rate, burst = 300.0, 5
	_, srv, hits := countingTarget(t, 1000, 150, webform.Options{})
	conn := DialWithClient(srv.URL, srv.Client())
	cfg := Config{
		Seed:         4,
		ShuffleOrder: true,
		Exec:         ExecConfig{RatePerSec: rate, Burst: burst},
	}
	start := time.Now()
	_, _, err := DrawParallel(context.Background(), conn, cfg, 32, 8)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	wire := hits.Load()
	if wire <= burst {
		t.Skipf("only %d wire requests; nothing to pace", wire)
	}
	minWall := time.Duration(float64(wire-burst) / rate * float64(time.Second))
	// Half-slack absorbs timer coarseness; without the shared limiter the
	// draw finishes an order of magnitude faster than minWall.
	if elapsed < minWall/2 {
		t.Fatalf("%d wire requests in %v: aggregate rate %.0f/s blows the %g/s budget",
			wire, elapsed, float64(wire)/elapsed.Seconds(), rate)
	}
}

// TestSliderZeroExplicit is the satellite regression: Config{Slider: 0,
// SliderSet: true} must select the documented lowest-skew walk (an active
// rejector, C < 1) instead of silently flipping to the accept-everything
// default — while the zero-value Config keeps meaning "fastest".
func TestSliderZeroExplicit(t *testing.T) {
	ds := datagen.Vehicles(500, 5)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	fastest, err := New(ctx, LocalConn(db), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := fastest.C(); c != 1 {
		t.Fatalf("zero-value Config C = %g, want 1 (fastest)", c)
	}

	lowSkew, err := New(ctx, LocalConn(db), Config{Seed: 1, Slider: 0, SliderSet: true, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c := lowSkew.C(); c >= 1 || c <= 0 {
		t.Fatalf("explicit Slider: 0 C = %g, want the lowest-skew target in (0,1)", c)
	}

	halfway, err := New(ctx, LocalConn(db), Config{Seed: 1, Slider: 0.5, SliderSet: true, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if lowSkew.C() >= halfway.C() {
		t.Fatalf("slider ordering broken: C(0)=%g >= C(0.5)=%g", lowSkew.C(), halfway.C())
	}
}

// TestSingleSamplerTransientRetryKnob pins that a lone Sampler draws
// through a connector that retries its own blips: over faultform's
// emulation of formclient.HTTP's retry loop, every sample arrives, and
// QueriesRetried counts exactly the blips the site served.
func TestSingleSamplerTransientRetryKnob(t *testing.T) {
	ds := datagen.IIDBoolean(5, 200, 0.5, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn := faultform.Wrap(formclient.NewLocal(db), faultform.Profile{TransientProb: 0.3}, 4)
	s, err := New(context.Background(), conn, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := s.Draw(context.Background(), 10)
	if err != nil {
		t.Fatalf("Draw through transient blips: %v", err)
	}
	if len(tuples) != 10 {
		t.Fatalf("drew %d of 10 samples", len(tuples))
	}
	blips := conn.FaultStats().Transients
	if blips == 0 {
		t.Fatal("the site never blipped")
	}
	if stats.QueriesRetried != blips {
		t.Fatalf("Draw stats QueriesRetried = %d, want the %d blips served", stats.QueriesRetried, blips)
	}
}

// TestDrawParallelRetriesArePerCall: the retry counter lives in the
// caller's connector, so each DrawParallel over one conn must report the
// retries of its own draw only.
func TestDrawParallelRetriesArePerCall(t *testing.T) {
	_, local := localVehicles(t, 3000, 100, hiddendb.CountNone)
	conn := faultform.Wrap(local, faultform.Profile{TransientProb: 0.2}, 8)
	ctx := context.Background()
	var before int64
	for seed := int64(1); seed <= 2; seed++ {
		_, stats, err := DrawParallel(ctx, conn, Config{Seed: seed, ShuffleOrder: true}, 40, 2)
		if err != nil {
			t.Fatal(err)
		}
		blips := conn.FaultStats().Transients - before
		before += blips
		if blips == 0 {
			t.Fatalf("call %d: the site never blipped", seed)
		}
		if stats.QueriesRetried != blips {
			t.Fatalf("call %d: QueriesRetried = %d, want its own %d blips", seed, stats.QueriesRetried, blips)
		}
	}
}

// TestPersistent503CostsOneBudget: against a site whose search endpoint
// always answers 503, one query through the default stack costs one
// budget of formclient.MaxAttempts requests and one pass through the
// execution layer, then surfaces ErrTransient.
func TestPersistent503CostsOneBudget(t *testing.T) {
	t.Run("html", func(t *testing.T) {
		ds := datagen.Vehicles(200, 3)
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
		if err != nil {
			t.Fatal(err)
		}
		site := webform.NewServer(db, webform.Options{})
		var searches atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/search" {
				searches.Add(1)
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			site.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)

		exec := &telemetry.Histogram{}
		st := NewStack(Dial(srv.URL), queryexec.Options{ExecLatency: exec}, nil)
		_, err = st.Conn().Execute(context.Background(), hiddendb.EmptyQuery())
		if !errors.Is(err, formclient.ErrTransient) {
			t.Fatalf("err = %v, want ErrTransient", err)
		}
		if got := searches.Load(); got != formclient.MaxAttempts {
			t.Fatalf("site saw %d search requests, want %d", got, formclient.MaxAttempts)
		}
		if got := exec.Snapshot().Count; got != 1 {
			t.Fatalf("execution layer timed %d queries, want 1", got)
		}
	})
}
