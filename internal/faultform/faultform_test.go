package faultform

import (
	"context"
	"errors"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
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

// overflowQuery returns a query that overflows. Its k rows come back
// through formclient.Local only under formclient.WantRows, so the tests
// that read them ask for them.
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
	res, err := conn.Execute(formclient.WantRows(context.Background()), hiddendb.EmptyQuery())
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
	ctx := formclient.WantRows(context.Background())
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
	// Injected 429s must advance the connector's retry counter exactly
	// like formclient.HTTP's internal retries do.
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
	conn := Wrap(formclient.NewLocal(db), Profile{RateLimitProb: 1, RateLimitBurst: 7}, 3)
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

// TestTransientBlipThenRecovery: the emulated client retries a blip burst
// within its budget, as formclient.HTTP does, so one Execute absorbs it,
// and a traced walk's level records the retries.
func TestTransientBlipThenRecovery(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{TransientProb: 1, TransientBurst: 2}, 3)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	w := tracer.Start("walk", "job", "")
	w.BeginLevel(0, 0, 0, 1)
	q := overflowQuery(t, db)

	if _, err := conn.Execute(telemetry.WithTrace(context.Background(), w), q); err != nil {
		t.Fatalf("burst within budget must succeed: %v", err)
	}
	w.EndLevel(telemetry.LevelValid, 0)
	w.Finish()
	if views := tracer.Dump(); len(views) != 1 || len(views[0].Levels) != 1 || views[0].Levels[0].Retries != 2 {
		t.Fatalf("dump = %+v, want one level with 2 retries", views)
	}
	if st := conn.FaultStats(); st.Transients != 2 {
		t.Fatalf("Transients = %d, want 2", st.Transients)
	}
	if st := conn.Stats(); st.TransientRetries != 2 || st.RateLimitRetries != 0 {
		t.Fatalf("retries: %d transient, %d rate-limit; want 2 and 0", st.TransientRetries, st.RateLimitRetries)
	}
}

// TestBurstsShareOneBudget: 429s come first, then blips, and both spend
// one budget of formclient.MaxAttempts attempts; what is left of a burst
// reaches the query's next execution.
func TestBurstsShareOneBudget(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{
		RateLimitProb: 1, RateLimitBurst: 3, TransientProb: 1, TransientBurst: 3,
	}, 3)
	ctx := context.Background()
	q := overflowQuery(t, db)

	if _, err := conn.Execute(ctx, q); !errors.Is(err, formclient.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient once the budget is spent", err)
	}
	fs, st := conn.FaultStats(), conn.Stats()
	if fs.RateLimited != 3 || fs.Transients != formclient.MaxAttempts-3 || fs.Exhausted429s != 0 {
		t.Fatalf("faults = %+v, want 3 429s, then blips to the budget", fs)
	}
	if st.RateLimitRetries != 3 || st.TransientRetries != formclient.MaxAttempts-4 {
		t.Fatalf("retries: %d rate-limit, %d transient; want 3 and %d",
			st.RateLimitRetries, st.TransientRetries, formclient.MaxAttempts-4)
	}
	if _, err := conn.Execute(ctx, q); err != nil {
		t.Fatalf("post-burst execution: %v", err)
	}
	if fs := conn.FaultStats(); fs.Transients != 3 {
		t.Fatalf("Transients = %d, want the whole burst of 3", fs.Transients)
	}
}

func TestJitterTrimsAndFlagsOverflow(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	inner := formclient.NewLocal(db)
	conn := Wrap(inner, Profile{TopKJitter: 1}, 99)
	ctx := formclient.WantRows(context.Background())
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

// An overflowing answer whose rows no walk asked for comes back from
// formclient.Local as a flag and a count: there is no page to trim or
// reorder, so neither fault fires or counts.
func TestUnwantedOverflowDrawsNoContentFaults(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{TopKJitter: 1, Reorder: true}, 99)
	res, err := conn.Execute(context.Background(), overflowQuery(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 0 {
		t.Fatalf("want a row-less overflow answer, got overflow %v with %d rows", res.Overflow, len(res.Tuples))
	}
	if st := conn.FaultStats(); st.Jittered != 0 || st.Reordered != 0 {
		t.Fatalf("jittered %d, reordered %d: want no content fault on a row-less answer", st.Jittered, st.Reordered)
	}
}

func TestReorderPermutesDeterministically(t *testing.T) {
	db := testDB(t, 200, 25, hiddendb.CountNone)
	conn := Wrap(formclient.NewLocal(db), Profile{Reorder: true}, 7)
	ctx := formclient.WantRows(context.Background())
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
	for _, want := range Presets() {
		p, ok := Preset(want.Name)
		if !ok || p.Name != want.Name {
			t.Fatalf("preset %q does not resolve", want.Name)
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
