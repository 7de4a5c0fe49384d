package hdsampler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
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
// execution layer, under an AIMD ceiling, over the JSON API connector
// with the history cache disabled: every sample arrives, and both the
// replicas' logical query bill and the site's wire traffic are nonzero.
func TestDrawParallelExecOverAPI(t *testing.T) {
	_, srv, hits := countingTarget(t, 2000, 250, webform.Options{})
	conn := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
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
	conn := formclient.NewAPI(srv.URL, formclient.HTTPOptions{Client: srv.Client()})
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

// TestReplicaSetExecStats covers the layer's stat plumbing: replicas
// drawing through a Stack's conn land their queries on its executor, one
// wire call each.
func TestReplicaSetExecStats(t *testing.T) {
	ds := datagen.Vehicles(1500, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 200})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStack(LocalConn(db), queryexec.Options{}, nil)
	rs, err := NewReplicaSet(context.Background(), st.Conn(), Config{
		Seed: 11, ShuffleOrder: true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Draw(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	xs := st.ExecStats()
	if xs.Queries == 0 {
		t.Fatal("executor saw no queries")
	}
	if xs.WireCalls != xs.Queries {
		t.Fatalf("wire calls %d, logical queries %d; want them equal", xs.WireCalls, xs.Queries)
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
// through the execution layer and its TransientRetries budget: a one-blip
// interface must cost a retry, not the draw.
func TestSingleSamplerTransientRetryKnob(t *testing.T) {
	ds := datagen.IIDBoolean(5, 200, 0.5, 9)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn := &oneBlipConn{inner: formclient.NewLocal(db)}
	s, err := New(context.Background(), conn, Config{Seed: 4, Exec: ExecConfig{TransientRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := s.Draw(context.Background(), 10)
	if err != nil {
		t.Fatalf("Draw through a transient blip: %v", err)
	}
	if len(tuples) != 10 {
		t.Fatalf("drew %d of 10 samples", len(tuples))
	}
	if xs := s.ExecStats(); xs.TransientRetries != 1 {
		t.Fatalf("TransientRetries = %d, want 1", xs.TransientRetries)
	}
	if stats.QueriesRetried != 1 {
		t.Fatalf("Draw stats QueriesRetried = %d, want 1", stats.QueriesRetried)
	}
	if !conn.blipped.Load() {
		t.Fatal("test conn never blipped")
	}
}

// oneBlipConn fails exactly one Execute with a transient fault.
type oneBlipConn struct {
	inner   formclient.Conn
	blipped atomic.Bool
}

func (c *oneBlipConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return c.inner.Schema(ctx)
}

func (c *oneBlipConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if c.blipped.CompareAndSwap(false, true) {
		return nil, formclient.ErrTransient
	}
	return c.inner.Execute(ctx, q)
}

func (c *oneBlipConn) Stats() formclient.Stats { return c.inner.Stats() }
