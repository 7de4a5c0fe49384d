package history

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

func newCachedConn(t *testing.T, ds *datagen.Dataset, k int, mode hiddendb.CountMode, opts Options) (*hiddendb.DB, *formclient.Local, *Cache) {
	t.Helper()
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	return db, local, New(local, opts)
}

func TestExactRepeatHit(t *testing.T) {
	_, local, cache := newCachedConn(t, datagen.IIDBoolean(5, 100, 0.5, 1), 10, hiddendb.CountNone, Options{})
	ctx := context.Background()
	q := hiddendb.MustQuery(
		hiddendb.Predicate{Attr: 0, Value: 1},
		hiddendb.Predicate{Attr: 1, Value: 0},
		hiddendb.Predicate{Attr: 2, Value: 1},
		hiddendb.Predicate{Attr: 3, Value: 0})
	r1, err := cache.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overflow {
		t.Fatal("test needs a non-overflowing query; tighten the predicate")
	}
	r2, err := cache.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overflow != r2.Overflow || len(r1.Tuples) != len(r2.Tuples) {
		t.Fatal("cached answer differs")
	}
	if got := local.Stats().Queries; got != 1 {
		t.Fatalf("inner queries = %d, want 1", got)
	}
	st := cache.CacheStats()
	if st.Issued != 1 || st.ExactHits != 1 || st.Saved() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidAncestorInference(t *testing.T) {
	ds := datagen.IIDBoolean(6, 60, 0.5, 2)
	db, local, cache := newCachedConn(t, ds, 100, hiddendb.CountExact, Options{})
	ctx := context.Background()
	// k=100 >= n: the very first broad query is valid and complete, so
	// every subsequent query must be answered locally.
	parent := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})
	if _, err := cache.Execute(ctx, parent); err != nil {
		t.Fatal(err)
	}
	child := parent.With(1, 1).With(2, 0)
	got, err := cache.Execute(ctx, child)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(child)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow {
		t.Fatalf("inferred (%d tuples) differs from direct (%d tuples)", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if want.Tuples[i].ID != got.Tuples[i].ID {
			t.Fatal("inferred rows differ from direct execution")
		}
	}
	if got.Count != len(want.Tuples) {
		t.Fatalf("inferred count = %d, want %d", got.Count, len(want.Tuples))
	}
	// Only the parent went through the connector; the ground-truth call
	// above hit the DB directly.
	if local.Stats().Queries != 1 {
		t.Fatalf("inner queries = %d, want 1", local.Stats().Queries)
	}
	st := cache.CacheStats()
	if st.Inferred != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyAncestorInference(t *testing.T) {
	// Construct data where a1=1 is empty.
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"), hiddendb.BoolAttr("c"))
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 1}}, {Vals: []int{0, 1, 0}}, {Vals: []int{0, 1, 1}},
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	cache := New(local, Options{})
	ctx := context.Background()
	empty := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 1})
	if r, err := cache.Execute(ctx, empty); err != nil || !r.Empty() {
		t.Fatalf("setup: %+v %v", r, err)
	}
	// Any specialization of an empty query is empty without a query.
	child := empty.With(1, 0).With(2, 1)
	r, err := cache.Execute(ctx, child)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Empty() {
		t.Fatalf("inferred %+v, want empty", r)
	}
	if local.Stats().Queries != 1 {
		t.Fatalf("inner queries = %d, want 1", local.Stats().Queries)
	}
}

func TestOverflowAncestorNotUsed(t *testing.T) {
	// An overflowing ancestor answer must not be filtered into a child
	// answer (its rows are incomplete).
	ds := datagen.IIDBoolean(6, 500, 0.5, 3)
	db, local, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{})
	ctx := context.Background()
	parent := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})
	if r, err := cache.Execute(ctx, parent); err != nil || !r.Overflow {
		t.Fatalf("setup: parent should overflow: %+v %v", r, err)
	}
	child := parent.With(1, 1)
	got, err := cache.Execute(ctx, child)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(child)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
		t.Fatal("child answer should come from a real query, not the overflow ancestor")
	}
	if local.Stats().Queries != 2 {
		t.Fatalf("inner queries = %d, want 2", local.Stats().Queries)
	}
}

func TestCachedOverflowKeepsNoTuples(t *testing.T) {
	ds := datagen.IIDBoolean(6, 500, 0.5, 4)
	_, _, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{})
	ctx := context.Background()
	if _, err := cache.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
		t.Fatal(err)
	}
	r, err := cache.Execute(ctx, hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Overflow {
		t.Fatal("want overflow")
	}
	if len(r.Tuples) != 0 {
		t.Fatalf("cached overflow carries %d tuples, want 0 (documented)", len(r.Tuples))
	}
}

func TestSiblingCountInference(t *testing.T) {
	// Parent count 10, a1=0 count 10 cached; then a1=1 must be inferable
	// as empty without a query when counts are trusted.
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"))
	tuples := make([]hiddendb.Tuple, 10)
	for i := range tuples {
		tuples[i] = hiddendb.Tuple{Vals: []int{0, i % 2}}
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 3, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	cache := New(local, Options{TrustCounts: true})
	ctx := context.Background()
	if _, err := cache.Execute(ctx, hiddendb.EmptyQuery()); err != nil { // parent: count 10
		t.Fatal(err)
	}
	if _, err := cache.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})); err != nil { // sibling: count 10
		t.Fatal(err)
	}
	r, err := cache.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Empty() || r.Count != 0 {
		t.Fatalf("inferred %+v, want empty with count 0", r)
	}
	if local.Stats().Queries != 2 {
		t.Fatalf("inner queries = %d, want 2", local.Stats().Queries)
	}
	if cache.CacheStats().Inferred != 1 {
		t.Fatalf("stats = %+v", cache.CacheStats())
	}
}

func TestSiblingCountInferenceDisabledByDefault(t *testing.T) {
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"))
	tuples := make([]hiddendb.Tuple, 10)
	for i := range tuples {
		tuples[i] = hiddendb.Tuple{Vals: []int{0, i % 2}}
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 3, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	cache := New(local, Options{TrustCounts: false})
	ctx := context.Background()
	cache.Execute(ctx, hiddendb.EmptyQuery())
	cache.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0}))
	cache.Execute(ctx, hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 1}))
	if local.Stats().Queries != 3 {
		t.Fatalf("inner queries = %d, want 3 (no count inference)", local.Stats().Queries)
	}
}

func TestMaxEntriesEviction(t *testing.T) {
	ds := datagen.IIDBoolean(8, 200, 0.5, 5)
	_, _, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{MaxEntries: 16})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		q := hiddendb.EmptyQuery()
		for a := 0; a < 8; a++ {
			if rng.Intn(2) == 0 {
				q = q.With(a, rng.Intn(2))
			}
		}
		if _, err := cache.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() > 16 {
		t.Fatalf("cache grew to %d entries despite cap 16", cache.Len())
	}
}

func TestInferenceDepthCap(t *testing.T) {
	ds := datagen.IIDBoolean(6, 40, 0.5, 6)
	_, local, cache := newCachedConn(t, ds, 100, hiddendb.CountNone, Options{MaxInferDepth: 2})
	ctx := context.Background()
	parent := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})
	cache.Execute(ctx, parent) // valid (k >= n)
	deep := parent.With(1, 0).With(2, 0).With(3, 0)
	if _, err := cache.Execute(ctx, deep); err != nil {
		t.Fatal(err)
	}
	// Depth 4 > cap 2: inference skipped, real query issued.
	if local.Stats().Queries != 2 {
		t.Fatalf("inner queries = %d, want 2", local.Stats().Queries)
	}
}

// Property: for random query sequences, the cached connector returns
// answers identical (overflow flag, tuple IDs) to direct execution.
func TestCacheEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := datagen.IIDBoolean(5, 30+rng.Intn(100), 0.5, seed)
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
			hiddendb.Config{K: 1 + rng.Intn(10), CountMode: hiddendb.CountExact})
		if err != nil {
			return false
		}
		cache := New(formclient.NewLocal(db), Options{TrustCounts: true})
		ctx := context.Background()
		for i := 0; i < 40; i++ {
			q := hiddendb.EmptyQuery()
			for a := 0; a < 5; a++ {
				if rng.Intn(3) == 0 {
					q = q.With(a, rng.Intn(2))
				}
			}
			got, err := cache.Execute(ctx, q)
			if err != nil {
				return false
			}
			want, err := db.Execute(q)
			if err != nil {
				return false
			}
			if got.Overflow != want.Overflow {
				return false
			}
			if !got.Overflow {
				if len(got.Tuples) != len(want.Tuples) {
					return false
				}
				for j := range want.Tuples {
					if got.Tuples[j].ID != want.Tuples[j].ID {
						return false
					}
				}
			}
			// Counts must agree whenever the cache reports one.
			if got.Count != hiddendb.CountAbsent && got.Count != want.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A complete (non-overflow) ancestor answer shows every match, so the
// inferred child's count is exact even when the interface reports no
// counts at all — regression for the rule-2/3 count bug that only set
// Count when the ancestor carried an interface count.
func TestInferredCountPinnedWithoutInterfaceCounts(t *testing.T) {
	ds := datagen.IIDBoolean(6, 60, 0.5, 2)
	db, local, cache := newCachedConn(t, ds, 100, hiddendb.CountNone, Options{})
	ctx := context.Background()
	parent := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})
	if r, err := cache.Execute(ctx, parent); err != nil || r.Overflow {
		t.Fatalf("setup: want complete parent, got %+v %v", r, err)
	}
	child := parent.With(1, 1).With(2, 0)
	got, err := cache.Execute(ctx, child)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(child)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count == hiddendb.CountAbsent {
		t.Fatal("inferred answer from a complete ancestor must pin the exact count")
	}
	if got.Count != len(want.Tuples) {
		t.Fatalf("inferred count = %d, want %d", got.Count, len(want.Tuples))
	}
	if local.Stats().Queries != 1 {
		t.Fatalf("inner queries = %d, want 1", local.Stats().Queries)
	}
}

// duplicateCell is a two-boolean database whose cell (1,1) holds 10
// duplicates under K = 3, so that cell's fully specified query overflows,
// plus the cache under test over it.
func duplicateCell(t *testing.T, opts Options) (*formclient.Local, *Cache, hiddendb.Query) {
	t.Helper()
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"))
	var tuples []hiddendb.Tuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, hiddendb.Tuple{Vals: []int{1, 1}})
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	hot := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 1}, hiddendb.Predicate{Attr: 1, Value: 1})
	return local, New(local, opts), hot
}

// churn runs the three cells other than (1,1) through the cache, far past
// a two-entry cap, so every evictable entry turns over.
func churn(t *testing.T, cache *Cache) {
	t.Helper()
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if a == 1 && b == 1 {
				continue
			}
			q := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: a}, hiddendb.Predicate{Attr: 1, Value: b})
			if _, err := cache.Execute(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// An overflow entry holding wanted rows is the only window onto its
// cell's visible top-k; eviction must never reclaim it.
func TestEvictionNeverDropsPinnedOverflow(t *testing.T) {
	local, cache, hot := duplicateCell(t, Options{MaxEntries: 2, Shards: 1})
	ctx := formclient.WantRows(context.Background())
	r, err := cache.Execute(ctx, hot)
	if err != nil || !r.Overflow || len(r.Tuples) == 0 {
		t.Fatalf("setup: want pinned full-overflow answer with rows, got %+v %v", r, err)
	}
	churn(t, cache)
	before := local.Stats().Queries
	r2, err := cache.Execute(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats().Queries != before {
		t.Fatal("pinned fully-specified overflow entry was evicted")
	}
	if !r2.Overflow || len(r2.Tuples) != len(r.Tuples) {
		t.Fatalf("pinned replay lost rows: %+v", r2)
	}
}

// TestUnwantedOverflowRowsAreNotKept is the other side of the rows-wanted
// rule: an overflow answer whose rows nobody asked for is cached as its
// flag alone, stays evictable, and a later lookup that does want the
// rows misses and replaces the entry with one that keeps them.
func TestUnwantedOverflowRowsAreNotKept(t *testing.T) {
	local, cache, hot := duplicateCell(t, Options{MaxEntries: 2, Shards: 1})
	ctx := context.Background()
	if _, err := cache.Execute(ctx, hot); err != nil {
		t.Fatal(err)
	}
	r, err := cache.Execute(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Overflow || len(r.Tuples) != 0 || cache.CacheStats().ExactHits != 1 {
		t.Fatalf("replay of an unwanted overflow: %+v (hits %d), want the flag alone from the cache",
			r, cache.CacheStats().ExactHits)
	}
	if p := cache.ShardStats()[0].Protected; p != 0 {
		t.Fatalf("%d pinned entries, want none", p)
	}

	// A lookup wanting the rows misses and keeps them.
	before := local.Stats().Queries
	r, err = cache.Execute(formclient.WantRows(ctx), hot)
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats().Queries != before+1 || len(r.Tuples) != 3 {
		t.Fatalf("wanted lookup: %d wire queries and %d rows, want 1 and 3",
			local.Stats().Queries-before, len(r.Tuples))
	}
	if p := cache.ShardStats()[0].Protected; p != 1 {
		t.Fatalf("%d pinned entries after the wanted answer, want 1", p)
	}

	// Without the wanted answer, the row-less entry is evicted like any
	// other.
	local, cache, hot = duplicateCell(t, Options{MaxEntries: 2, Shards: 1})
	if _, err := cache.Execute(ctx, hot); err != nil {
		t.Fatal(err)
	}
	churn(t, cache)
	before = local.Stats().Queries
	if _, err := cache.Execute(ctx, hot); err != nil {
		t.Fatal(err)
	}
	if local.Stats().Queries != before+1 {
		t.Fatal("the row-less overflow entry survived the churn; want it evicted")
	}
}

// Deep queries must infer through the ancestor index without an
// exponential subset scan; this guards the query-count contract (a single
// issued root answers every descendant).
func TestDeepInferenceThroughIndex(t *testing.T) {
	ds := datagen.IIDBoolean(16, 40, 0.5, 9)
	_, local, cache := newCachedConn(t, ds, 100, hiddendb.CountNone, Options{})
	ctx := context.Background()
	if _, err := cache.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
		t.Fatal(err)
	}
	q := hiddendb.EmptyQuery()
	for a := 0; a < 16; a++ {
		q = q.With(a, a%2)
	}
	if _, err := cache.Execute(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := local.Stats().Queries; got != 1 {
		t.Fatalf("inner queries = %d, want 1 (root only; depth-16 child inferred)", got)
	}
	if st := cache.CacheStats(); st.Inferred != 1 {
		t.Fatalf("stats = %+v, want 1 inference", st)
	}
}

// Restore round-trips a dump into a fresh cache: replayed queries are
// answered without touching the connector.
func TestDumpRestoreWarmStart(t *testing.T) {
	ds := datagen.IIDBoolean(5, 40, 0.5, 3)
	db, _, cache := newCachedConn(t, ds, 100, hiddendb.CountExact, Options{})
	ctx := context.Background()
	queries := []hiddendb.Query{
		hiddendb.EmptyQuery(),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0}),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: 1, Value: 1}, hiddendb.Predicate{Attr: 2, Value: 0}),
	}
	for _, q := range queries {
		if _, err := cache.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	snap := cache.Dump()
	if len(snap.Entries) != cache.Len() {
		t.Fatalf("dump holds %d entries, cache %d", len(snap.Entries), cache.Len())
	}

	local2 := formclient.NewLocal(db)
	warm := New(local2, Options{})
	n, err := warm.Restore(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(snap.Entries) {
		t.Fatalf("restored %d of %d entries", n, len(snap.Entries))
	}
	for _, q := range queries {
		got, err := warm.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("warm replay of %v differs: %+v vs %+v", q, got, want)
		}
	}
	// The schema fetch is the only traffic the warm cache may generate.
	if got := local2.Stats().Queries; got != 0 {
		t.Fatalf("warm cache issued %d queries, want 0", got)
	}
}

// TestRestoreSkipsRowsThatDoNotFit pins that Restore skips entries whose
// rows do not fit the live schema. A checkpoint written before a site
// changed its schema can hold a complete root entry (the root key parses
// under any schema) whose rows are too short; adopting it made rules 2-3
// answer every query as empty.
func TestRestoreSkipsRowsThatDoNotFit(t *testing.T) {
	ds := datagen.IIDBoolean(5, 40, 0.5, 3)
	db, local, cache := newCachedConn(t, ds, 100, hiddendb.CountNone, Options{})
	ctx := context.Background()
	row := func(vals ...int) []hiddendb.Tuple { return []hiddendb.Tuple{{ID: 1, Vals: vals}} }
	a0 := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0}).Key()
	snap := &Snapshot{Entries: []SnapshotEntry{
		{Key: "", Tuples: row(1)},                          // wrong arity
		{Key: a0, Tuples: row(0, 1, 0, 1, 2)},              // out of domain
		{Key: a0, Tuples: row(1, 1, 0, 1, 0)},              // does not match its key
		{Key: a0, Overflow: true, Tuples: row(0, 1, 0, 1)}, // wrong arity, overflow
		{Key: a0, Tuples: row(0, 0, 0, 0, -1)},             // negative value
	}}
	n, err := cache.Restore(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || cache.Len() != 0 {
		t.Fatalf("restored %d entries (cache holds %d), want none", n, cache.Len())
	}
	root := hiddendb.EmptyQuery()
	got, err := cache.Execute(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("root answer %+v, want the interface's %+v", got, want)
	}
	if local.Stats().Queries != 1 {
		t.Fatalf("root query reached the interface %d times, want 1", local.Stats().Queries)
	}
}

func TestCacheSharesImmutableRows(t *testing.T) {
	// Cache hits share the entry's tuple rows (Results are read-only by
	// convention): repeated hits must return identical rows without the
	// per-hit deep copies the cache used to pay for, and Clone must hand
	// a caller detached storage.
	ds := datagen.IIDBoolean(4, 20, 0.5, 7)
	_, _, cache := newCachedConn(t, ds, 50, hiddendb.CountNone, Options{})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 0})
	r1, err := cache.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Tuples) == 0 {
		t.Skip("unlucky seed: empty result")
	}
	c := r1.Tuples[0].Clone()
	c.Vals[0] = 99
	r2, err := cache.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tuples[0].Vals[0] == 99 {
		t.Fatal("Clone aliased cache storage")
	}
	if len(r2.Tuples) != len(r1.Tuples) || r2.Tuples[0].ID != r1.Tuples[0].ID {
		t.Fatal("replayed rows differ from the original answer")
	}
}

func TestSchemaPassThroughAndCache(t *testing.T) {
	ds := datagen.IIDBoolean(3, 10, 0.5, 8)
	db, _, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{})
	ctx := context.Background()
	s1, err := cache.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("schema should be cached (same pointer)")
	}
	if !s1.Equal(db.Schema()) {
		t.Error("schema differs from database schema")
	}
}
