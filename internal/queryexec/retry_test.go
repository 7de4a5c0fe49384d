package queryexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// The execution layer retries nothing: 429s and blips are the connector's
// to retry, within formclient.MaxAttempts. faultform plays that loop over
// formclient.Local here, as formclient.HTTP runs it over the wire.

// blippyConn fails the first `fail` Executes of each query key with a
// transient fault, then answers: a connector that surfaces every blip at
// once.
type blippyConn struct {
	*formclient.Local
	fail     int
	mu       sync.Mutex
	attempts map[string]int
	faults   atomic.Int64
}

func newBlippy(db *hiddendb.DB, fail int) *blippyConn {
	return &blippyConn{
		Local:    formclient.NewLocal(db),
		fail:     fail,
		attempts: make(map[string]int),
	}
}

func (b *blippyConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	b.mu.Lock()
	b.attempts[q.Key()]++
	n := b.attempts[q.Key()]
	b.mu.Unlock()
	if n <= b.fail {
		b.faults.Add(1)
		return nil, fmt.Errorf("%w: blip", formclient.ErrTransient)
	}
	return b.Local.Execute(ctx, q)
}

// TestTransientRetryRecoversBlips: a blip burst within the connector's
// budget costs one connector call through the layer, and the admission
// slot it held is back.
func TestTransientRetryRecoversBlips(t *testing.T) {
	db := testDB(t, 300)
	inner := faultform.Wrap(formclient.NewLocal(db), faultform.Profile{TransientProb: 1, TransientBurst: 2}, 1)
	lim := NewLimiter(LimiterOptions{MaxInFlight: 4})
	wire := &telemetry.Histogram{}
	x := New(inner, Options{Limiter: lim, Wire: wire})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	res, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute after blips: %v", err)
	}
	want, _ := db.Execute(q)
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("got %d tuples, want %d", len(res.Tuples), len(want.Tuples))
	}
	if n := wire.Snapshot().Count; n != 1 {
		t.Fatalf("connector calls = %d, want 1", n)
	}
	if st := x.Stats(); st.TransientRetries != 2 {
		t.Fatalf("connector TransientRetries = %d, want 2", st.TransientRetries)
	}
	if n := lim.InFlight(); n != 0 {
		t.Fatalf("in-flight after the call = %d, want 0", n)
	}
}

// TestTransientRetryBudgetExhausts: past the connector's budget the blip
// reaches the caller after formclient.MaxAttempts attempts and one
// connector call through the layer, and the admission slot is back.
func TestTransientRetryBudgetExhausts(t *testing.T) {
	db := testDB(t, 300)
	inner := faultform.Wrap(formclient.NewLocal(db),
		faultform.Profile{TransientProb: 1, TransientBurst: 2 * formclient.MaxAttempts}, 1)
	lim := NewLimiter(LimiterOptions{MaxInFlight: 4})
	wire := &telemetry.Histogram{}
	x := New(inner, Options{Limiter: lim, Wire: wire})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	_, err := x.Execute(context.Background(), q)
	if !errors.Is(err, formclient.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if n := wire.Snapshot().Count; n != 1 {
		t.Fatalf("connector calls = %d, want 1", n)
	}
	if got := inner.FaultStats().Transients; got != formclient.MaxAttempts {
		t.Fatalf("site served %d blips, want %d (the connector's budget)", got, formclient.MaxAttempts)
	}
	if n := lim.InFlight(); n != 0 {
		t.Fatalf("in-flight after the call = %d, want 0", n)
	}
}

// TestTransientRetryDisabled: the layer adds no retry of its own, so a
// connector that surfaces a blip at once costs one connector call and the
// blip comes back to the caller.
func TestTransientRetryDisabled(t *testing.T) {
	db := testDB(t, 300)
	inner := newBlippy(db, 1)
	wire := &telemetry.Histogram{}
	x := New(inner, Options{Wire: wire})
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 2})

	if _, err := x.Execute(context.Background(), q); !errors.Is(err, formclient.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if n := wire.Snapshot().Count; n != 1 {
		t.Fatalf("connector calls = %d, want 1", n)
	}
	if got := inner.faults.Load(); got != 1 {
		t.Fatalf("connector blipped %d times, want 1", got)
	}
}
