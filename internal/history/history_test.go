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

// TestMaxBytesEviction pins the byte budget: after every store the
// charged bytes of the resident entries stay within MaxBytes, and the
// cache's running total matches its shards' and its entries' charges.
func TestMaxBytesEviction(t *testing.T) {
	const max = 4 << 10
	ds := datagen.IIDBoolean(8, 200, 0.5, 5)
	_, _, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{MaxBytes: max})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if _, err := cache.Execute(ctx, randomQuery(rng)); err != nil {
			t.Fatal(err)
		}
		if b := cache.Bytes(); b > max {
			t.Fatalf("store %d: %d charged bytes resident, cap %d", i, b, max)
		}
		checkCharges(t, cache)
	}
	if cache.CacheStats().Evictions == 0 {
		t.Fatal("100 random queries never filled a 4 KiB cache")
	}
}

// randomQuery constrains each of 8 boolean attributes with probability
// 1/2, to a random value.
func randomQuery(rng *rand.Rand) hiddendb.Query {
	q := hiddendb.EmptyQuery()
	for a := 0; a < 8; a++ {
		if rng.Intn(2) == 0 {
			q = q.With(a, rng.Intn(2))
		}
	}
	return q
}

// checkCharges asserts that Bytes, the shards' Bytes and the charges of
// the resident entries agree.
func checkCharges(t *testing.T, c *Cache) {
	t.Helper()
	var shards, entries int64
	for _, ss := range c.ShardStats() {
		shards += ss.Bytes
	}
	for i := range c.shards {
		for _, r := range c.shards[i].rings {
			for _, e := range r.es {
				entries += e.charge()
			}
		}
	}
	if b := c.Bytes(); b != shards || b != entries {
		t.Fatalf("Bytes() = %d, shards sum to %d, resident entries charge %d", b, shards, entries)
	}
}

// cellQuery is the fully specified query over 8 boolean attributes whose
// values are the bits of i; every such key has the same length.
func cellQuery(i int) hiddendb.Query {
	q := hiddendb.EmptyQuery()
	for a := 0; a < 8; a++ {
		q = q.With(a, i>>a&1)
	}
	return q
}

// fabricate returns an answer with n rows of the cell query's values.
func fabricate(q hiddendb.Query, overflow bool, n int) *hiddendb.Result {
	res := &hiddendb.Result{Overflow: overflow, Count: hiddendb.CountAbsent}
	for i := 0; i < n; i++ {
		vals := make([]int, 8)
		for a := range vals {
			vals[a], _ = q.Value(a)
		}
		res.Tuples = append(res.Tuples, hiddendb.Tuple{ID: i, Vals: vals})
	}
	return res
}

// resident reports whether q's entry is in the cache.
func resident(c *Cache, q hiddendb.Query) bool {
	sh := c.shardFor(q.Hash())
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.get(q.Hash(), q.Key()) != nil
}

// TestEvictionTakesRowBearingFirst pins the victim order. No row-less
// entry (an overflow flag or an empty answer) is evicted while a
// row-bearing one is resident; within each ring, CLOCK's second chance
// holds: a touched entry outlives an untouched one.
func TestEvictionTakesRowBearingFirst(t *testing.T) {
	const rows = 4
	flagBytes := (&entry{q: cellQuery(0), overflow: true}).charge()
	rowBytes := (&entry{q: cellQuery(0), indexed: true, tuples: fabricate(cellQuery(0), false, rows).Tuples}).charge()
	ds := datagen.IIDBoolean(8, 200, 0.5, 5)
	ctx := context.Background()

	// Four flags and three row-bearing answers fill the budget; flags
	// stored after that evict every row-bearing entry before any flag.
	_, _, cache := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{MaxBytes: 4*flagBytes + 3*rowBytes, Shards: 1})
	var flags, full []hiddendb.Query
	next := 0
	store := func(withRows bool) {
		q := cellQuery(next)
		next++
		if withRows {
			cache.store(q, fabricate(q, false, rows), true)
			full = append(full, q)
		} else {
			cache.store(q, fabricate(q, true, 0), false)
			flags = append(flags, q)
		}
		flagsLeft, fullLeft := 0, 0
		for _, q := range flags {
			if resident(cache, q) {
				flagsLeft++
			}
		}
		for _, q := range full {
			if resident(cache, q) {
				fullLeft++
			}
		}
		if flagsLeft < len(flags) && fullLeft > 0 {
			t.Fatalf("a flag was evicted while %d row-bearing entries stayed resident", fullLeft)
		}
		checkCharges(t, cache)
	}
	for i := 0; i < 4; i++ {
		store(false)
	}
	for i := 0; i < 4; i++ {
		store(true)
	}
	if ev := cache.CacheStats().Evictions; ev != 1 {
		t.Fatalf("%d evictions after one store past the budget, want 1", ev)
	}
	for i := 0; i < 20; i++ {
		store(false)
	}
	if ev := cache.CacheStats().Evictions; ev < 6 {
		t.Fatalf("%d evictions, want the flags to have turned over too", ev)
	}

	// Second chance within each ring: a touched entry outlives an
	// untouched one stored after it.
	for _, withRows := range []bool{true, false} {
		b := flagBytes
		if withRows {
			b = rowBytes
		}
		_, _, cache = newCachedConn(t, ds, 5, hiddendb.CountNone, Options{MaxBytes: 2 * b, Shards: 1})
		flags, full, next = nil, nil, 0
		store(withRows)
		store(withRows)
		q0, q1 := cellQuery(0), cellQuery(1)
		if _, err := cache.Execute(ctx, q0); err != nil || cache.CacheStats().ExactHits != 1 {
			t.Fatalf("touching the first entry: %v, %+v", err, cache.CacheStats())
		}
		store(withRows)
		if !resident(cache, q0) || resident(cache, q1) {
			t.Fatalf("rows=%v: touched entry resident %v, untouched %v; want the untouched one evicted",
				withRows, resident(cache, q0), resident(cache, q1))
		}
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

// churn runs the three cells other than (1,1), each an empty answer,
// through the cache.
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

// TestEvictedWantedOverflowIsFetchedAgain: an overflow entry holding
// wanted rows is charged and evicted like any other row-bearing entry,
// and the next lookup that wants its rows fetches them again.
func TestEvictedWantedOverflowIsFetchedAgain(t *testing.T) {
	// Measure the hot entry and the churn uncapped, then cap the cache one
	// byte below their total: the hot entry is the only row-bearing one,
	// so it is the victim.
	_, probe, hot := duplicateCell(t, Options{Shards: 1})
	want := formclient.WantRows(context.Background())
	if _, err := probe.Execute(want, hot); err != nil {
		t.Fatal(err)
	}
	churn(t, probe)

	local, cache, hot := duplicateCell(t, Options{MaxBytes: probe.Bytes() - 1, Shards: 1})
	r, err := cache.Execute(want, hot)
	if err != nil || !r.Overflow || len(r.Tuples) != 3 {
		t.Fatalf("setup: want a full-overflow answer with 3 rows, got %+v %v", r, err)
	}
	churn(t, cache)
	if resident(cache, hot) || cache.CacheStats().Evictions != 1 {
		t.Fatalf("hot entry resident %v after %d evictions; want it the one victim",
			resident(cache, hot), cache.CacheStats().Evictions)
	}
	before := local.Stats().Queries
	r2, err := cache.Execute(want, hot)
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats().Queries != before+1 {
		t.Fatalf("refetch issued %d wire queries, want 1", local.Stats().Queries-before)
	}
	if !r2.Overflow || len(r2.Tuples) != len(r.Tuples) {
		t.Fatalf("refetched answer lost rows: %+v", r2)
	}
}

// TestUnwantedOverflowRowsAreNotKept is the other side of the rows-wanted
// rule: an overflow answer whose rows nobody asked for is cached as its
// flag alone, in the row-less ring, and a later lookup that does want the
// rows misses and replaces the entry with one that keeps them.
func TestUnwantedOverflowRowsAreNotKept(t *testing.T) {
	local, cache, hot := duplicateCell(t, Options{Shards: 1})
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
	rings := &cache.shards[0].rings
	if len(rings[ringRows].es) != 0 || len(rings[ringFlags].es) != 1 {
		t.Fatalf("rings hold %d row-bearing and %d row-less entries, want 0 and 1",
			len(rings[ringRows].es), len(rings[ringFlags].es))
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
	if len(rings[ringRows].es) != 1 || len(rings[ringFlags].es) != 0 {
		t.Fatalf("after the wanted answer the rings hold %d row-bearing and %d row-less entries, want 1 and 0",
			len(rings[ringRows].es), len(rings[ringFlags].es))
	}

	// Without the wanted answer, the row-less entry is evicted like any
	// other: the budget holds it and one churned cell.
	budget := (&entry{q: hot, overflow: true}).charge() + (&entry{q: hot, indexed: true}).charge()
	local, cache, hot = duplicateCell(t, Options{MaxBytes: budget, Shards: 1})
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

// TestRestoreStaysWithinBudget: restoring a snapshot larger than the
// cap adopts every entry and evicts down to the budget as it goes.
func TestRestoreStaysWithinBudget(t *testing.T) {
	ds := datagen.IIDBoolean(8, 200, 0.5, 5)
	db, _, full := newCachedConn(t, ds, 5, hiddendb.CountNone, Options{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if _, err := full.Execute(ctx, randomQuery(rng)); err != nil {
			t.Fatal(err)
		}
	}
	snap := full.Dump()
	max := full.Bytes() / 3
	capped := New(formclient.NewLocal(db), Options{MaxBytes: max})
	n, err := capped.Restore(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(snap.Entries) {
		t.Fatalf("adopted %d of %d entries", n, len(snap.Entries))
	}
	if b := capped.Bytes(); b > max || capped.CacheStats().Evictions == 0 {
		t.Fatalf("restored %d charged bytes after %d evictions, cap %d", b, capped.CacheStats().Evictions, max)
	}
	checkCharges(t, capped)
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
