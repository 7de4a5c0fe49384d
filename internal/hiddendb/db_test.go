package hiddendb

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1DB builds the exact 4-tuple boolean database of the demo paper's
// Figure 1: attributes a1,a2,a3 and tuples
//
//	t1 = 001, t2 = 010, t3 = 011, t4 = 110.
func fig1DB(t *testing.T, k int) *DB {
	t.Helper()
	s := MustSchema("fig1", BoolAttr("a1"), BoolAttr("a2"), BoolAttr("a3"))
	tuples := []Tuple{
		{Vals: []int{0, 0, 1}},
		{Vals: []int{0, 1, 0}},
		{Vals: []int{0, 1, 1}},
		{Vals: []int{1, 1, 0}},
	}
	db, err := New(s, tuples, StaticRanker{Scores: []float64{4, 3, 2, 1}}, Config{K: k})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return db
}

func mustExec(t *testing.T, db *DB, q Query) *Result {
	t.Helper()
	res, err := db.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%v): %v", q, err)
	}
	return res
}

func TestExecuteEmptyQueryOverflow(t *testing.T) {
	db := fig1DB(t, 2)
	res := mustExec(t, db, EmptyQuery())
	if !res.Overflow {
		t.Fatal("broad query should overflow with k=2")
	}
	if res.Returned() != 2 {
		t.Fatalf("returned %d tuples, want 2", res.Returned())
	}
	// StaticRanker scores rank t1 (4) then t2 (3).
	if res.Tuples[0].ID != 0 || res.Tuples[1].ID != 1 {
		t.Fatalf("rank order wrong: %d,%d", res.Tuples[0].ID, res.Tuples[1].ID)
	}
}

func TestExecuteValidAndUnderflow(t *testing.T) {
	db := fig1DB(t, 2)
	// a1=0 AND a2=0 matches only t1.
	res := mustExec(t, db, MustQuery(Predicate{0, 0}, Predicate{1, 0}))
	if !res.Valid() || res.Returned() != 1 || res.Tuples[0].ID != 0 {
		t.Fatalf("expected exactly t1, got %+v", res)
	}
	// a1=1 AND a2=0 matches nothing.
	res = mustExec(t, db, MustQuery(Predicate{0, 1}, Predicate{1, 0}))
	if !res.Empty() {
		t.Fatalf("expected underflow, got %+v", res)
	}
}

func TestExecuteFigure1Drilldown(t *testing.T) {
	// Walk the paper's Figure 1 tree with k=1: a1=0 overflows (3 tuples),
	// a1=0,a2=1 overflows (2 tuples), a1=0,a2=1,a3=0 is valid with t2.
	db := fig1DB(t, 1)
	r1 := mustExec(t, db, MustQuery(Predicate{0, 0}))
	if !r1.Overflow {
		t.Fatal("a1=0 should overflow with k=1")
	}
	r2 := mustExec(t, db, MustQuery(Predicate{0, 0}, Predicate{1, 1}))
	if !r2.Overflow {
		t.Fatal("a1=0,a2=1 should overflow with k=1")
	}
	r3 := mustExec(t, db, MustQuery(Predicate{0, 0}, Predicate{1, 1}, Predicate{2, 0}))
	if !r3.Valid() || r3.Tuples[0].ID != 1 {
		t.Fatalf("leaf query should return t2, got %+v", r3)
	}
	// a1=1 side: only t4=110.
	r4 := mustExec(t, db, MustQuery(Predicate{0, 1}))
	if !r4.Valid() || r4.Tuples[0].ID != 3 {
		t.Fatalf("a1=1 should return exactly t4, got %+v", r4)
	}
}

func TestCountModes(t *testing.T) {
	s := MustSchema("s", BoolAttr("a"), BoolAttr("b"))
	tuples := make([]Tuple, 100)
	for i := range tuples {
		tuples[i] = Tuple{Vals: []int{i % 2, (i / 2) % 2}}
	}

	none, err := New(s, tuples, nil, Config{K: 10, CountMode: CountNone})
	if err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, none, EmptyQuery()); res.Count != CountAbsent {
		t.Errorf("CountNone reported %d", res.Count)
	}

	exact, err := New(s, tuples, nil, Config{K: 10, CountMode: CountExact})
	if err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, exact, EmptyQuery()); res.Count != 100 {
		t.Errorf("CountExact = %d, want 100", res.Count)
	}
	if res := mustExec(t, exact, MustQuery(Predicate{0, 0})); res.Count != 50 {
		t.Errorf("CountExact(a=0) = %d, want 50", res.Count)
	}

	approx, err := New(s, tuples, nil, Config{K: 10, CountMode: CountApprox, CountNoise: 0.3, NoiseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res1 := mustExec(t, approx, EmptyQuery())
	res2 := mustExec(t, approx, EmptyQuery())
	if res1.Count != res2.Count {
		t.Errorf("approximate count not deterministic: %d vs %d", res1.Count, res2.Count)
	}
	lo, hi := int(math.Floor(100*0.7)), int(math.Ceil(100*1.3))
	if res1.Count < lo || res1.Count > hi {
		t.Errorf("approx count %d outside [%d,%d]", res1.Count, lo, hi)
	}
}

func TestApproxCountZeroStaysZero(t *testing.T) {
	s := MustSchema("s", BoolAttr("a"), BoolAttr("b"))
	tuples := []Tuple{{Vals: []int{0, 0}}, {Vals: []int{0, 1}}}
	db, err := New(s, tuples, nil, Config{K: 5, CountMode: CountApprox, CountNoise: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, MustQuery(Predicate{0, 1}))
	if res.Count != 0 {
		t.Errorf("empty result approx count = %d, want 0", res.Count)
	}
}

func TestQueryBudget(t *testing.T) {
	db := fig1DB(t, 2)
	db.cfg.QueryBudget = 3
	for i := 0; i < 3; i++ {
		// A row-less overflow answer spends the budget like any other.
		if _, err := db.ExecuteRows(EmptyQuery(), i%2 == 0); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	if _, err := db.Execute(EmptyQuery()); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestQueriesServedCounter(t *testing.T) {
	db := fig1DB(t, 2)
	if db.QueriesServed() != 0 {
		t.Fatal("counter should start at 0")
	}
	mustExec(t, db, EmptyQuery())
	mustExec(t, db, MustQuery(Predicate{0, 0}))
	if res, err := db.ExecuteRows(EmptyQuery(), false); err != nil || !res.Overflow || len(res.Tuples) != 0 {
		t.Fatalf("row-less overflow answer: %+v, %v", res, err)
	}
	if got := db.QueriesServed(); got != 3 {
		t.Fatalf("QueriesServed = %d, want 3", got)
	}
}

func TestExecuteRejectsInvalidQuery(t *testing.T) {
	db := fig1DB(t, 2)
	if _, err := db.Execute(MustQuery(Predicate{9, 0})); err == nil {
		t.Fatal("out-of-range attribute accepted")
	}
	if _, err := db.Execute(MustQuery(Predicate{0, 7})); err == nil {
		t.Fatal("out-of-range value accepted")
	}
}

func TestNewValidation(t *testing.T) {
	s := MustSchema("s", BoolAttr("a"))
	if _, err := New(s, nil, nil, Config{}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := New(s, []Tuple{{Vals: []int{0, 1}}}, nil, Config{}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := New(s, []Tuple{{Vals: []int{3}}}, nil, Config{}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if _, err := New(s, []Tuple{{Vals: []int{0}, Nums: []float64{1, 2}}}, nil, Config{}); err == nil {
		t.Error("misaligned numeric payload accepted")
	}
	if _, err := New(s, []Tuple{{Vals: []int{0}}}, nil, Config{CountNoise: 1.5}); err == nil {
		t.Error("CountNoise >= 1 accepted")
	}
}

func TestTrueMarginal(t *testing.T) {
	db := fig1DB(t, 2)
	if got := db.TrueMarginal(0); got[0] != 3 || got[1] != 1 {
		t.Errorf("marginal(a1) = %v, want [3 1]", got)
	}
	if got := db.TrueMarginal(1); got[0] != 1 || got[1] != 3 {
		t.Errorf("marginal(a2) = %v, want [1 3]", got)
	}
}

func TestTrueAggregate(t *testing.T) {
	s := MustSchema("s", BoolAttr("used"), NumAttr("price", 0, 100, 200))
	nan := math.NaN()
	tuples := []Tuple{
		{Vals: []int{0, 0}, Nums: []float64{nan, 50}},
		{Vals: []int{1, 0}, Nums: []float64{nan, 80}},
		{Vals: []int{1, 1}, Nums: []float64{nan, 150}},
	}
	db, err := New(s, tuples, nil, Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	count, sum, avg := db.TrueAggregate(MustQuery(Predicate{0, 1}), 1)
	if count != 2 || sum != 230 || avg != 115 {
		t.Errorf("aggregate = %d,%g,%g; want 2,230,115", count, sum, avg)
	}
	count, sum, avg = db.TrueAggregate(EmptyQuery(), -1)
	if count != 3 || sum != 0 || avg != 0 {
		t.Errorf("count-only aggregate = %d,%g,%g", count, sum, avg)
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	// Execute shares the database's immutable tuple storage (see Result's
	// docs): Clone is the sanctioned way to obtain mutable ownership, and
	// a Clone must be fully detached from the backing store.
	db := fig1DB(t, 4)
	res := mustExec(t, db, EmptyQuery())
	c := res.Tuples[0].Clone()
	c.Vals[0] = 99
	res2 := mustExec(t, db, EmptyQuery())
	if res2.Tuples[0].Vals[0] == 99 {
		t.Fatal("Clone mutated shared tuple storage")
	}
	tu := db.Tuple(0)
	//hdlint:ignore resultimmut deliberate canary write proving db.Tuple returns a detached Clone
	tu.Vals[0] = 42
	if db.Tuple(0).Vals[0] == 42 {
		t.Fatal("Tuple returned shared storage")
	}
}

func TestRankOrderConsistency(t *testing.T) {
	// With HashRanker the order is arbitrary but must be identical across
	// queries: the top-k of a narrower query preserves relative order.
	s := MustSchema("s", BoolAttr("a"), BoolAttr("b"), BoolAttr("c"))
	rng := rand.New(rand.NewSource(11))
	tuples := make([]Tuple, 64)
	for i := range tuples {
		tuples[i] = Tuple{Vals: []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)}}
	}
	db, err := New(s, tuples, HashRanker{Seed: 3}, Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	broad := mustExec(t, db, EmptyQuery())
	narrow := mustExec(t, db, MustQuery(Predicate{0, 1}))
	posIn := func(id int, rs []Tuple) int {
		for i, tu := range rs {
			if tu.ID == id {
				return i
			}
		}
		return -1
	}
	last := -1
	for _, tu := range narrow.Tuples {
		p := posIn(tu.ID, broad.Tuples)
		if p < 0 {
			t.Fatalf("tuple %d in narrow result missing from broad result", tu.ID)
		}
		if p < last {
			t.Fatalf("rank order not preserved across queries")
		}
		last = p
	}
}

// Property: query-tree monotonicity. For random databases and random
// queries, extending a query never increases the match count, results of a
// child are a subset of the parent's matches, and the true count (a scan
// that bypasses the postings) is consistent with Execute's count and
// overflow flag.
func TestQueryTreeMonotonicityProperty(t *testing.T) {
	s := MustSchema("s",
		CatAttr("a", "0", "1", "2"),
		CatAttr("b", "0", "1", "2"),
		BoolAttr("c"),
		BoolAttr("d"))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		tuples := make([]Tuple, n)
		for i := range tuples {
			tuples[i] = Tuple{Vals: []int{rng.Intn(3), rng.Intn(3), rng.Intn(2), rng.Intn(2)}}
		}
		k := 1 + rng.Intn(8)
		db, err := New(s, tuples, HashRanker{Seed: uint64(seed)}, Config{K: k, CountMode: CountExact})
		if err != nil {
			return false
		}
		q := EmptyQuery()
		prevCount, _, _ := db.TrueAggregate(q, -1)
		order := rng.Perm(s.NumAttrs())
		for _, a := range order {
			q = q.With(a, rng.Intn(s.DomainSize(a)))
			c, _, _ := db.TrueAggregate(q, -1)
			if c > prevCount {
				return false
			}
			res, err := db.Execute(q)
			if err != nil {
				return false
			}
			if res.Count != c {
				return false
			}
			if res.Overflow != (c > k) {
				return false
			}
			if !res.Overflow && res.Returned() != c {
				return false
			}
			for _, tu := range res.Tuples {
				if !q.Matches(tu.Vals) {
					return false
				}
			}
			prevCount = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRankers(t *testing.T) {
	tu := Tuple{ID: 5, Vals: []int{2, 1}, Nums: []float64{math.NaN(), 150}}
	h := HashRanker{Seed: 1}
	if h.Score(&tu) != h.Score(&tu) {
		t.Error("HashRanker not deterministic")
	}
	other := Tuple{ID: 6, Vals: []int{2, 1}}
	if h.Score(&tu) == h.Score(&other) {
		t.Error("HashRanker should separate IDs (w.h.p.)")
	}
	asc := ByAttrRanker{Attr: 1, Ascending: true}
	desc := ByAttrRanker{Attr: 1}
	if asc.Score(&tu) != -150 || desc.Score(&tu) != 150 {
		t.Errorf("ByAttrRanker scores = %g,%g", asc.Score(&tu), desc.Score(&tu))
	}
	catRanker := ByAttrRanker{Attr: 0}
	if catRanker.Score(&tu) != 2 {
		t.Errorf("ByAttrRanker on categorical = %g, want 2", catRanker.Score(&tu))
	}
	st := StaticRanker{Scores: []float64{1, 2}}
	if st.Score(&Tuple{ID: 1}) != 2 || st.Score(&Tuple{ID: 9}) != 0 {
		t.Error("StaticRanker wrong")
	}
	for _, r := range []Ranker{h, asc, desc, st} {
		if r.Name() == "" {
			t.Error("empty ranker name")
		}
	}
}

func TestCountModeString(t *testing.T) {
	if CountNone.String() != "none" || CountExact.String() != "exact" || CountApprox.String() != "approx" {
		t.Error("count mode names wrong")
	}
	if CountMode(7).String() != "countmode(7)" {
		t.Error("unknown count mode rendered wrong")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Count: CountAbsent}
	if !r.Empty() || r.Valid() {
		t.Error("zero-tuple non-overflow should be Empty and not Valid")
	}
	r = &Result{Tuples: []Tuple{{}}, Overflow: true}
	if r.Empty() || r.Valid() {
		t.Error("overflow should be neither Empty nor Valid")
	}
	r = &Result{Tuples: []Tuple{{Vals: []int{1}}}}
	if !r.Valid() {
		t.Error("non-overflow with tuples should be Valid")
	}
	c := r.Clone()
	c.Tuples[0].Vals[0] = 9
	if r.Tuples[0].Vals[0] == 9 {
		t.Error("Clone shares tuple storage")
	}
}

func TestTupleNum(t *testing.T) {
	tu := Tuple{Vals: []int{0, 1}, Nums: []float64{math.NaN(), 42}}
	if _, ok := tu.Num(0); ok {
		t.Error("NaN payload should be absent")
	}
	if v, ok := tu.Num(1); !ok || v != 42 {
		t.Errorf("Num(1) = %g,%v", v, ok)
	}
	bare := Tuple{Vals: []int{0}}
	if _, ok := bare.Num(0); ok {
		t.Error("missing Nums should be absent")
	}
}
