package queryexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// slowConn wraps a Local conn, holding every Execute long enough for
// concurrent identical queries to pile up on the in-flight call.
type slowConn struct {
	*formclient.Local
	delay time.Duration
	execs atomic.Int64
	peak  atomic.Int64 // peak concurrent Executes
	cur   atomic.Int64
}

func (s *slowConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	cur := s.cur.Add(1)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	defer s.cur.Add(-1)
	s.execs.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Local.Execute(ctx, q)
}

func testDB(t testing.TB, n int) *hiddendb.DB {
	t.Helper()
	ds := datagen.Vehicles(n, 7)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCoalesceIdenticalInFlight(t *testing.T) {
	db := testDB(t, 500)
	inner := &slowConn{Local: formclient.NewLocal(db), delay: 20 * time.Millisecond}
	x := New(inner, Options{})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})

	const workers = 16
	var wg sync.WaitGroup
	results := make([]*hiddendb.Result, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = x.Execute(ctx, q)
		}(i)
	}
	wg.Wait()

	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if len(results[i].Tuples) != len(want.Tuples) || results[i].Overflow != want.Overflow {
			t.Fatalf("worker %d got %d tuples (overflow %v), want %d (%v)",
				i, len(results[i].Tuples), results[i].Overflow, len(want.Tuples), want.Overflow)
		}
	}
	st := x.ExecStats()
	if st.Queries != workers {
		t.Fatalf("Queries = %d, want %d", st.Queries, workers)
	}
	// At least some of the racers must have shared an in-flight answer; a
	// 20ms hold makes "all 16 executed separately" effectively impossible.
	if st.Coalesced == 0 {
		t.Fatal("no queries coalesced despite 16 racers on one key")
	}
	if got := inner.execs.Load(); got+st.Coalesced != workers {
		t.Fatalf("wire executes (%d) + coalesced (%d) != %d logical queries", got, st.Coalesced, workers)
	}
	// Fan-out answers share the leader's immutable Result (read-only by
	// convention); a caller wanting mutable rows clones, and the clone
	// must be detached from every other caller's answer.
	if len(results[0].Tuples) > 0 {
		c := results[0].Tuples[0].Clone()
		c.Vals[0] = -99
		for i := 1; i < workers; i++ {
			if len(results[i].Tuples) > 0 && results[i].Tuples[0].Vals[0] == -99 {
				t.Fatal("cloned tuple aliases coalesced results")
			}
		}
	}
}

func TestCoalesceDistinctKeysDoNotShare(t *testing.T) {
	db := testDB(t, 200)
	inner := formclient.NewLocal(db)
	x := New(inner, Options{})
	ctx := context.Background()
	r1, err := x.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0}))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := x.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if x.ExecStats().Coalesced != 0 {
		t.Fatal("distinct sequential queries reported as coalesced")
	}
	w1, _ := db.Execute(hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0}))
	w2, _ := db.Execute(hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1}))
	if len(r1.Tuples) != len(w1.Tuples) || len(r2.Tuples) != len(w2.Tuples) {
		t.Fatalf("wrong answers: %d/%d want %d/%d", len(r1.Tuples), len(r2.Tuples), len(w1.Tuples), len(w2.Tuples))
	}
}

// errConn fails every execute with a caller-chosen error.
type errConn struct {
	schema *hiddendb.Schema
	err    error
}

func (e *errConn) Schema(ctx context.Context) (*hiddendb.Schema, error) { return e.schema, nil }
func (e *errConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	return nil, e.err
}
func (e *errConn) Stats() formclient.Stats { return formclient.Stats{} }

func TestErrorsPropagateToAllWaiters(t *testing.T) {
	ds := datagen.Vehicles(50, 7)
	boom := errors.New("boom")
	x := New(&errConn{schema: ds.Schema, err: boom}, Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := x.Execute(ctx, hiddendb.EmptyQuery()); !errors.Is(err, boom) {
				t.Errorf("error = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
}

func TestLimiterAIMD(t *testing.T) {
	l := NewLimiter(LimiterOptions{MaxInFlight: 8})
	ctx := context.Background()
	if got := l.Limit(); got != 8 {
		t.Fatalf("initial limit = %g, want 8", got)
	}
	// Congestion: multiplicative decrease.
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	l.Release(false)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after one backoff = %g, want 4", got)
	}
	if l.Backoffs() != 1 {
		t.Fatalf("backoffs = %d, want 1", l.Backoffs())
	}
	// Recovery: additive increase, ~+1 per window of clean requests.
	for i := 0; i < 64; i++ {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		l.Release(true)
	}
	if got := l.Limit(); got <= 4 || got > 8 {
		t.Fatalf("limit after recovery = %g, want in (4, 8]", got)
	}
	// The floor holds under repeated congestion.
	for i := 0; i < 20; i++ {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		l.Release(false)
	}
	if got := l.Limit(); got < 1 {
		t.Fatalf("limit fell below the floor: %g", got)
	}
}

func TestLimiterBoundsConcurrency(t *testing.T) {
	db := testDB(t, 500)
	inner := &slowConn{Local: formclient.NewLocal(db), delay: 5 * time.Millisecond}
	lim := NewLimiter(LimiterOptions{MaxInFlight: 3})
	x := New(inner, Options{Limiter: lim})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := hiddendb.MustQuery(
				hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: i % 8},
				hiddendb.Predicate{Attr: datagen.VehAttrYear, Value: i % 3})
			if _, err := x.Execute(ctx, q); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if peak := inner.peak.Load(); peak > 3 {
		t.Fatalf("peak wire concurrency %d exceeds MaxInFlight 3", peak)
	}
	if l := lim.InFlight(); l != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", l)
	}
}

func TestLimiterRateSpacing(t *testing.T) {
	now := time.Unix(0, 0)
	var slept []time.Duration
	l := NewLimiter(LimiterOptions{
		RatePerSec: 2, Burst: 1,
		Now:   func() time.Time { return now },
		Sleep: func(ctx context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	})
	ctx := context.Background()
	// Burst token: immediate.
	if err := l.Acquire(ctx); err != nil || len(slept) != 0 {
		t.Fatalf("first acquire slept %v, err %v", slept, err)
	}
	l.Release(true)
	// Same instant: one token of debt = 500ms at 2/s.
	if err := l.Acquire(ctx); err != nil || len(slept) != 1 || slept[0] != 500*time.Millisecond {
		t.Fatalf("second acquire slept %v, err %v", slept, err)
	}
	l.Release(true)
	// After a second the bucket has refilled one token.
	now = now.Add(time.Second)
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	l.Release(true)
	if len(slept) != 1 {
		t.Fatalf("refilled acquire slept again: %v", slept)
	}
	if l.Waits() != 1 {
		t.Fatalf("waits = %d, want 1", l.Waits())
	}
}

func TestLimiterCancelled(t *testing.T) {
	l := NewLimiter(LimiterOptions{RatePerSec: 0.001, Burst: 1})
	ctx, cancel := context.WithCancel(context.Background())
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	l.Release(true)
	cancel()
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("acquire with cancelled context succeeded")
	}
	if l.InFlight() != 0 {
		t.Fatalf("cancelled acquire leaked an in-flight slot: %d", l.InFlight())
	}
}

// TestAggregateRateBounded is the politeness guarantee the old
// per-goroutine sleep never gave: N concurrent workers sharing one
// limiter together stay under the configured rate. 8 workers race 120
// acquisitions through a 400/s budget — the run cannot finish faster
// than ~(120-burst)/400s no matter how many goroutines push.
func TestAggregateRateBounded(t *testing.T) {
	const (
		workers = 8
		total   = 120
		rate    = 400.0
		burst   = 10
	)
	l := NewLimiter(LimiterOptions{RatePerSec: rate, Burst: burst})
	ctx := context.Background()
	var wg sync.WaitGroup
	var n atomic.Int64
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n.Add(1) <= total {
				if err := l.Acquire(ctx); err != nil {
					t.Error(err)
					return
				}
				l.Release(true)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	minWall := time.Duration(float64(total-burst) / rate * float64(time.Second))
	// Generous slack for scheduler jitter: the aggregate stream must
	// still have been paced, not 8× the budget.
	if elapsed < minWall/2 {
		t.Fatalf("%d acquisitions across %d workers took %v; a %g/s budget requires >= %v",
			total, workers, elapsed, rate, minWall)
	}
	if l.Waits() == 0 {
		t.Fatal("rate meter never delayed anyone")
	}
}

func TestExecutorConnInterface(t *testing.T) {
	db := testDB(t, 100)
	x := New(formclient.NewLocal(db), Options{})
	var conn formclient.Conn = x
	s, err := conn.Schema(context.Background())
	if err != nil || s.NumAttrs() == 0 {
		t.Fatalf("schema via Conn: %v", err)
	}
	if _, err := conn.Execute(context.Background(), hiddendb.EmptyQuery()); err != nil {
		t.Fatal(err)
	}
	if conn.Stats().Queries == 0 {
		t.Fatal("Stats does not surface the wrapped connector's traffic")
	}
	if fmt.Sprint(x.Limiter()) != "<nil>" {
		t.Fatal("unlimited executor should have a nil limiter")
	}
}
