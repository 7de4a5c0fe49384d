package faultform

import (
	"context"
	"errors"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

func testDB(t testing.TB, n, k int, mode hiddendb.CountMode) *hiddendb.DB {
	t.Helper()
	ds := datagen.Vehicles(n, 17)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func overflowQuery(t testing.TB, db *hiddendb.DB) hiddendb.Query {
	t.Helper()
	// The empty query over a db larger than k always overflows with k rows.
	q := hiddendb.EmptyQuery()
	res, err := db.Execute(q)
	if err != nil || !res.Overflow {
		t.Fatalf("empty query should overflow (err=%v)", err)
	}
	return q
}

func TestInactiveProfilePassesThrough(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountExact)
	conn := Wrap(formclient.NewLocal(db), Profile{Name: "none"}, 1)
	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Execute(hiddendb.EmptyQuery())
	if len(res.Tuples) != len(want.Tuples) || res.Count != want.Count || res.Overflow != want.Overflow {
		t.Fatal("inactive profile altered the result")
	}
	if got := conn.FaultStats().Total(); got != 0 {
		t.Fatalf("inactive profile injected %d faults", got)
	}
}

func TestRateLimitBurstAbsorbedByEmulatedRetries(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{RateLimitProb: 1, RateLimitBurst: 2}, 3)
	ctx := context.Background()
	q := overflowQuery(t, db)

	before := conn.Stats().RateLimitRetries
	res, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatalf("burst within budget must succeed: %v", err)
	}
	if res == nil || len(res.Tuples) == 0 {
		t.Fatal("no result")
	}
	st := conn.FaultStats()
	if st.RateLimited != 2 {
		t.Fatalf("RateLimited = %d, want 2", st.RateLimited)
	}
	// The AIMD limiter watches the connector's retry counter: injected
	// 429s must advance it exactly like formclient.HTTP's internal
	// retries do.
	if adv := conn.Stats().RateLimitRetries - before; adv != 2 {
		t.Fatalf("RateLimitRetries advanced by %d, want 2", adv)
	}

	// The burst is consumed: the same query now flows cleanly.
	if _, err := conn.Execute(ctx, q); err != nil {
		t.Fatalf("second execution: %v", err)
	}
	if st := conn.FaultStats(); st.RateLimited != 2 {
		t.Fatalf("burst not consumed: RateLimited = %d", st.RateLimited)
	}
}

func TestRateLimitBurstBeyondBudgetSurfacesThenRecovers(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{RateLimitProb: 1, RateLimitBurst: 7, MaxRetries: 5}, 3)
	ctx := context.Background()
	q := overflowQuery(t, db)

	if _, err := conn.Execute(ctx, q); !errors.Is(err, formclient.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if st := conn.FaultStats(); st.Exhausted429s != 1 {
		t.Fatalf("Exhausted429s = %d, want 1", st.Exhausted429s)
	}
	// 5 of the 7-burst are consumed; the next execution eats the last two
	// as internal retries and succeeds: liveness by construction.
	if _, err := conn.Execute(ctx, q); err != nil {
		t.Fatalf("post-burst execution: %v", err)
	}
}

func TestTransientBlipThenRecovery(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{TransientProb: 1, TransientBurst: 2}, 3)
	ctx := context.Background()
	q := overflowQuery(t, db)

	for i := 0; i < 2; i++ {
		if _, err := conn.Execute(ctx, q); !errors.Is(err, formclient.ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want ErrTransient", i, err)
		}
	}
	if _, err := conn.Execute(ctx, q); err != nil {
		t.Fatalf("post-burst: %v", err)
	}
	if st := conn.FaultStats(); st.Transients != 2 {
		t.Fatalf("Transients = %d, want 2", st.Transients)
	}
}

func TestJitterTrimsAndFlagsOverflow(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	inner := formclient.NewLocal(db)
	conn := Wrap(inner, Profile{TopKJitter: 1}, 99)
	ctx := context.Background()
	q := overflowQuery(t, db)

	want, _ := db.Execute(q)
	res, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) >= len(want.Tuples) || len(res.Tuples) < 1 {
		t.Fatalf("jitter kept %d of %d rows", len(res.Tuples), len(want.Tuples))
	}
	if !res.Overflow {
		t.Fatal("a trimmed page must report overflow — hiding rows silently biases the walk")
	}
	// Determinism: an independent wrapper with the same seed trims
	// identically.
	conn2 := Wrap(formclient.NewLocal(db), Profile{TopKJitter: 1}, 99)
	res2, err := conn2.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tuples) != len(res.Tuples) {
		t.Fatalf("jitter nondeterministic: %d vs %d rows", len(res2.Tuples), len(res.Tuples))
	}
	// Immutability: the inner result must be untouched.
	again, _ := db.Execute(q)
	if len(again.Tuples) != len(want.Tuples) {
		t.Fatal("jitter mutated the shared inner result")
	}
}

func TestReorderPermutesDeterministically(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{Reorder: true}, 7)
	ctx := context.Background()
	q := overflowQuery(t, db)

	want, _ := db.Execute(q)
	res, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("reorder changed row count: %d vs %d", len(res.Tuples), len(want.Tuples))
	}
	sameOrder := true
	seen := make(map[int]bool, len(want.Tuples))
	for i := range want.Tuples {
		if res.Tuples[i].ID != want.Tuples[i].ID {
			sameOrder = false
		}
		seen[want.Tuples[i].ID] = true
	}
	if sameOrder {
		t.Fatal("reorder left the rank order intact")
	}
	for i := range res.Tuples {
		if !seen[res.Tuples[i].ID] {
			t.Fatalf("reorder invented row %d", res.Tuples[i].ID)
		}
	}
	res2, _ := conn.Execute(ctx, q)
	for i := range res.Tuples {
		if res.Tuples[i].ID != res2.Tuples[i].ID {
			t.Fatal("reorder nondeterministic across executions")
		}
	}
}

func TestCountRounding(t *testing.T) {
	db := testDB(t, 203, 25, hiddendb.CountExact)
	conn := Wrap(formclient.NewLocal(db), Profile{CountRoundTo: 10}, 7)
	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 200 {
		t.Fatalf("Count = %d, want 200 (203 rounded down to 10s)", res.Count)
	}
	if st := conn.FaultStats(); st.RoundedCounts != 1 {
		t.Fatalf("RoundedCounts = %d, want 1", st.RoundedCounts)
	}
}

func TestPresetsResolve(t *testing.T) {
	for _, name := range PresetNames() {
		p, ok := Preset(name)
		if !ok || p.Name != name {
			t.Fatalf("preset %q does not resolve", name)
		}
	}
	if _, ok := Preset("nonsense"); ok {
		t.Fatal("unknown preset resolved")
	}
	if p, _ := Preset("none"); p.Active() {
		t.Fatal("the none preset injects faults")
	}
	for _, name := range []string{"flaky", "jitter", "hostile"} {
		if p, _ := Preset(name); !p.Active() {
			t.Fatalf("preset %q inactive", name)
		}
	}
}
