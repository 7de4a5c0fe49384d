package queryexec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// slowConn wraps a conn, holding every Execute long enough for
// concurrent queries to pile up at the limiter: for delay, or, while hold
// is set, until hold closes.
type slowConn struct {
	formclient.Conn
	delay time.Duration
	hold  chan struct{}
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
	if s.hold != nil {
		<-s.hold
	}
	return s.Conn.Execute(ctx, q)
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

func TestLimiterBoundsConcurrency(t *testing.T) {
	db := testDB(t, 500)
	inner := &slowConn{Conn: formclient.NewLocal(db), delay: 5 * time.Millisecond}
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
	l.Release()
	// Same instant: one token of debt = 500ms at 2/s.
	if err := l.Acquire(ctx); err != nil || len(slept) != 1 || slept[0] != 500*time.Millisecond {
		t.Fatalf("second acquire slept %v, err %v", slept, err)
	}
	l.Release()
	// After a second the bucket has refilled one token.
	now = now.Add(time.Second)
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	l.Release()
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
	l.Release()
	cancel()
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("acquire with cancelled context succeeded")
	}
	if l.InFlight() != 0 {
		t.Fatalf("cancelled acquire leaked an in-flight slot: %d", l.InFlight())
	}
}

// TestCapHoldsUnderPushback: the cap is fixed. After ten 429-hit
// queries, eight concurrent slow queries still run four at a time
// through MaxInFlight 4, and never more.
func TestCapHoldsUnderPushback(t *testing.T) {
	db := testDB(t, 500)
	inner := &slowConn{Conn: faultform.Wrap(formclient.NewLocal(db), faultform.Profile{RateLimitProb: 1}, 1)}
	lim := NewLimiter(LimiterOptions{MaxInFlight: 4})
	x := New(inner, Options{Limiter: lim})
	ctx := context.Background()
	query := func(i int) hiddendb.Query {
		return hiddendb.MustQuery(
			hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: i % 8},
			hiddendb.Predicate{Attr: datagen.VehAttrYear, Value: i / 8})
	}
	for i := 0; i < 10; i++ {
		if _, err := x.Execute(ctx, query(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := x.Stats().RateLimitRetries; n != 20 {
		t.Fatalf("connector retried %d 429s, want 20", n)
	}

	inner.hold = make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := x.Execute(ctx, query(16+i)); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inner.cur.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for an over-admission to show
	close(inner.hold)
	wg.Wait()
	if peak := inner.peak.Load(); peak != 4 {
		t.Fatalf("peak concurrency %d after 429 pushback, want the cap of 4", peak)
	}
	if n := lim.InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
}

// TestCancelledWaitLeaksNoSlot: a caller cancelled while waiting on a
// full cap gets its context's error, and the slot it never held stays
// free.
func TestCancelledWaitLeaksNoSlot(t *testing.T) {
	l := NewLimiter(LimiterOptions{MaxInFlight: 1})
	bg := context.Background()
	if err := l.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error)
	go func() { done <- l.Acquire(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	if n := l.InFlight(); n != 1 {
		t.Fatalf("in-flight = %d, want the 1 admitted query", n)
	}
	l.Release()
	// The cap's one slot is free again: a fresh caller is admitted at once.
	ctx, cancel = context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("acquire after a cancelled wait: %v", err)
	}
	l.Release()
	if n := l.InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
}

// TestRateOnlyLimiterCountsInFlight: a limiter without a cap still
// counts the queries it admitted.
func TestRateOnlyLimiterCountsInFlight(t *testing.T) {
	l := NewLimiter(LimiterOptions{RatePerSec: 1000, Burst: 5})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.InFlight(); n != 3 {
		t.Fatalf("in-flight = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		l.Release()
	}
	if n := l.InFlight(); n != 0 {
		t.Fatalf("in-flight after release = %d, want 0", n)
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
				l.Release()
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
	if n := x.Stats().Queries; n != 2 {
		t.Fatalf("connector answered %d queries, want 2", n)
	}
}
