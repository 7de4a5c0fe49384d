package queryexec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// slowConn wraps a Local conn, holding every Execute long enough for
// concurrent queries to pile up at the limiter.
type slowConn struct {
	*formclient.Local
	delay time.Duration
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

// fixedConn answers every execute with a caller-chosen result and error.
type fixedConn struct {
	schema *hiddendb.Schema
	res    *hiddendb.Result
	err    error
}

func (c *fixedConn) Schema(ctx context.Context) (*hiddendb.Schema, error) { return c.schema, nil }
func (c *fixedConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	return c.res, c.err
}
func (c *fixedConn) Stats() formclient.Stats { return formclient.Stats{} }

// TestErrorsPropagateToAllWaiters: every concurrent caller of a failing
// query gets the connector's error.
func TestErrorsPropagateToAllWaiters(t *testing.T) {
	ds := datagen.Vehicles(50, 7)
	boom := errors.New("boom")
	x := New(&fixedConn{schema: ds.Schema, err: boom}, Options{})
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
}

// TestWantedRowsReachTheConnector pins the rows-wanted signal through the
// executor: over formclient.Local, a caller that wants overflow rows gets
// them, and a plain caller's overflow answer comes back row-less.
func TestWantedRowsReachTheConnector(t *testing.T) {
	db := testDB(t, 500)
	x := New(formclient.NewLocal(db), Options{})
	q := hiddendb.EmptyQuery()
	ctx := context.Background()
	if res, err := x.Execute(formclient.WantRows(ctx), q); err != nil || !res.Overflow || len(res.Tuples) != db.K() {
		t.Fatalf("rows-wanting caller: %+v %v, want an overflow with its %d rows", res, err, db.K())
	}
	if res, err := x.Execute(ctx, q); err != nil || !res.Overflow || len(res.Tuples) != 0 {
		t.Fatalf("plain caller: %+v %v, want a row-less overflow", res, err)
	}
	if st := x.ExecStats(); st.Queries != 2 || st.WireCalls != 2 {
		t.Fatalf("stats = %+v, want 2 queries and 2 wire calls", st)
	}
}
