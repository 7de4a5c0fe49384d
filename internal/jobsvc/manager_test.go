package jobsvc

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// newTarget boots an in-process webform server over a fresh vehicles DB.
func newTarget(t *testing.T, n, k int, mode hiddendb.CountMode) (*hiddendb.DB, *httptest.Server) {
	t.Helper()
	ds := datagen.Vehicles(n, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	t.Cleanup(srv.Close)
	return db, srv
}

func newTestManager(t *testing.T, srv *httptest.Server, cfg Config) *Manager {
	t.Helper()
	cfg.Client = srv.Client()
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return m
}

// waitJob polls until pred holds or the deadline passes.
func waitJob(t *testing.T, m *Manager, id string, timeout time.Duration, pred func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := m.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting; last view %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"valid defaults", Spec{URL: "http://x.test", N: 5}, ""},
		{"missing url", Spec{N: 5}, "missing target url"},
		{"relative url", Spec{URL: "x.test/form", N: 5}, "absolute http"},
		{"bad connector", Spec{URL: "http://x.test", N: 5, Connector: "ftp"}, "unknown connector"},
		{"bad method", Spec{URL: "http://x.test", N: 5, Method: "exhaustive"}, "unknown method"},
		{"zero n", Spec{URL: "http://x.test"}, "need > 0"},
		{"crawl without n", Spec{URL: "http://x.test", Method: MethodCrawl}, ""},
		{"bad slider", Spec{URL: "http://x.test", N: 5, Slider: ptr(1.5)}, "slider"},
		{"explicit zero slider", Spec{URL: "http://x.test", N: 5, Slider: ptr(0.0)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			_, err := spec.normalize()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if spec.Connector == "" || spec.Method == "" || spec.Workers < 1 {
					t.Fatalf("defaults not filled: %+v", spec)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// ptr returns a pointer to v, for optional Spec fields.
func ptr(v float64) *float64 { return &v }

func TestBudgetConn(t *testing.T) {
	ds := datagen.Vehicles(10, 1)
	inner := &fakeConn{schema: ds.Schema}
	b := &budgetConn{inner: inner, budget: 3}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := b.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
			t.Fatalf("query %d within budget failed: %v", i, err)
		}
	}
	if _, err := b.Execute(ctx, hiddendb.EmptyQuery()); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget query: %v", err)
	}
}

type fakeConn struct {
	schema *hiddendb.Schema
	execs  atomic.Int64
}

func (c *fakeConn) Schema(ctx context.Context) (*hiddendb.Schema, error) { return c.schema, nil }
func (c *fakeConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	c.execs.Add(1)
	return &hiddendb.Result{Count: hiddendb.CountAbsent}, nil
}
func (c *fakeConn) Stats() formclient.Stats {
	return formclient.Stats{Queries: c.execs.Load()}
}

func TestJobBudgetExhaustionKeepsPartialSamples(t *testing.T) {
	_, srv := newTarget(t, 2000, 250, hiddendb.CountNone)
	m := newTestManager(t, srv, Config{DataDir: t.TempDir()})
	v, err := m.Submit(Spec{URL: srv.URL, N: 100000, Workers: 2, Seed: 5, MaxQueries: 60})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, m, v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "budget") {
		t.Fatalf("error = %q, want budget exhaustion", v.Error)
	}
	if v.Accepted == 0 {
		t.Fatal("budgeted job accepted no samples before failing")
	}
	// The partial set survives: in memory and on disk.
	set, err := m.SampleSet(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(set.Samples)) != v.Accepted {
		t.Fatalf("partial set has %d samples, view says %d", len(set.Samples), v.Accepted)
	}
	if v.Checkpoint == "" {
		t.Fatal("partial set not checkpointed")
	}
}

func TestQueueRespectsMaxConcurrent(t *testing.T) {
	_, srv := newTarget(t, 2000, 250, hiddendb.CountNone)
	m := newTestManager(t, srv, Config{MaxConcurrent: 1})
	long, err := m.Submit(Spec{URL: srv.URL, N: 1000000, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, long.ID, 10*time.Second, func(v View) bool { return v.State == StateRunning })
	small, err := m.Submit(Spec{URL: srv.URL, N: 5, Workers: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The single slot is held: the second job must still be queued.
	time.Sleep(50 * time.Millisecond)
	if v, _ := m.Job(small.ID); v.State != StateQueued {
		t.Fatalf("second job state = %s, want queued behind the slot", v.State)
	}
	if _, err := m.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, small.ID, 30*time.Second, func(v View) bool { return v.State == StateCompleted })
}

func TestShutdownDrainsAndPersistsPartials(t *testing.T) {
	_, srv := newTarget(t, 2000, 250, hiddendb.CountNone)
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Client: srv.Client()}
	m := NewManager(cfg)
	v, err := m.Submit(Spec{URL: srv.URL, N: 1000000, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, v.ID, 30*time.Second, func(v View) bool { return v.Accepted > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got, err := m.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state after shutdown = %s, want canceled", got.State)
	}
	if got.Accepted == 0 || got.Checkpoint == "" {
		t.Fatalf("partial samples not persisted: %+v", got)
	}
	if _, err := m.Submit(Spec{URL: srv.URL, N: 5}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestCrawlJob(t *testing.T) {
	db, srv := newTarget(t, 400, 50, hiddendb.CountNone)
	m := newTestManager(t, srv, Config{})
	v, err := m.Submit(Spec{URL: srv.URL, Method: MethodCrawl, Connector: ConnectorAPI})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, m, v.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateCompleted {
		t.Fatalf("crawl state = %s (%s)", v.State, v.Error)
	}
	if v.Accepted == 0 || v.Accepted > int64(db.Size()) {
		t.Fatalf("crawl extracted %d of %d tuples", v.Accepted, db.Size())
	}
	set, err := m.SampleSet(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Samples) != int(v.Accepted) {
		t.Fatalf("set has %d samples, view says %d", len(set.Samples), v.Accepted)
	}
}

func TestWeightedJobAgainstCountingInterface(t *testing.T) {
	_, srv := newTarget(t, 1500, 200, hiddendb.CountExact)
	m := newTestManager(t, srv, Config{})
	v, err := m.Submit(Spec{URL: srv.URL, Method: MethodWeighted, N: 20, Workers: 2, Seed: 4, TrustCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, m, v.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateCompleted || v.Accepted != 20 {
		t.Fatalf("weighted job: %+v", v)
	}
}

func TestPolitenessThrottleCounts(t *testing.T) {
	_, srv := newTarget(t, 1000, 150, hiddendb.CountNone)
	// A tight budget (50/s, burst 1): even under -race slowdown the
	// concurrent workers must outpace the meter and be delayed.
	m := newTestManager(t, srv, Config{HostRatePerSec: 50, HostBurst: 1})
	v, err := m.Submit(Spec{URL: srv.URL, N: 15, Workers: 3, Seed: 6, NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, m, v.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateCompleted {
		t.Fatalf("throttled job: %+v", v)
	}
	hosts := m.Hosts()
	if len(hosts) != 1 {
		t.Fatalf("hosts = %d, want 1", len(hosts))
	}
	if hosts[0].Throttled == 0 {
		t.Fatal("politeness limiter never delayed a query at 50 q/s with burst 1")
	}
}

// TestExecLayerSharedAcrossWorkers drives a replica pool through the
// daemon's shared execution layer: the host's traffic goes through it,
// its AIMD window stays within the configured ceiling, and every
// admission slot is released once the job ends.
func TestExecLayerSharedAcrossWorkers(t *testing.T) {
	_, srv := newTarget(t, 1500, 200, hiddendb.CountNone)
	m := newTestManager(t, srv, Config{HostMaxInFlight: 8})
	v, err := m.Submit(Spec{URL: srv.URL, Connector: ConnectorAPI, N: 48, Workers: 8, Seed: 9, NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, m, v.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateCompleted {
		t.Fatalf("job: %+v", v)
	}
	hosts := m.Hosts()
	if len(hosts) != 1 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	hs := hosts[0]
	if hs.WireCalls == 0 {
		t.Fatalf("execution layer idle: %+v", hs)
	}
	if hs.Limit <= 0 || hs.Limit > 8 {
		t.Fatalf("AIMD window = %g, want in (0, 8]", hs.Limit)
	}
	// A cancelled worker's wire call may still be unwinding right after
	// the job turns terminal; the gauge must settle to zero, not leak
	// slots.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if inFlight := m.Hosts()[0].InFlight; inFlight == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("in-flight never drained: %d", inFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHistoryCheckpointAndWarmStart(t *testing.T) {
	_, srv := newTarget(t, 2000, 500, hiddendb.CountNone)
	histDir := t.TempDir()
	cfg := Config{HistoryDir: histDir, Client: srv.Client()}

	// First life: run a job, then shut down — the shared cache must be
	// checkpointed to HistoryDir.
	m1 := NewManager(cfg)
	v, err := m1.Submit(Spec{URL: srv.URL, N: 30, Workers: 2, Slider: ptr(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, v.ID, 30*time.Second, func(v View) bool { return v.State == StateCompleted })
	firstIssued := m1.Hosts()[0].Issued
	if firstIssued == 0 {
		t.Fatal("first run issued no queries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(histDir, "history-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files = %v (err %v), want exactly one", files, err)
	}

	// Second life: a fresh manager warm-starts the cache during Submit,
	// before the job draws anything.
	m2 := newTestManager(t, srv, Config{HistoryDir: histDir})
	v2, err := m2.Submit(Spec{URL: srv.URL, N: 30, Workers: 2, Slider: ptr(1), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hs := m2.Hosts(); len(hs) != 1 || hs[0].Entries == 0 {
		t.Fatalf("cache not warm-started at submit: %+v", hs)
	}
	waitJob(t, m2, v2.ID, 30*time.Second, func(v View) bool { return v.State == StateCompleted })
	if hs := m2.Hosts(); hs[0].Saved() == 0 {
		t.Fatalf("warm-started run saved nothing: %+v", hs[0])
	}
}
