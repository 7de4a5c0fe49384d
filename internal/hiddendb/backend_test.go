package hiddendb

import (
	"math/rand"
	"testing"
)

// diffSchema is the differential-test schema: enough attributes and
// value skew that random conjunctive queries hit empty, partial, and
// overflowing result sets.
func diffSchema(t testing.TB) *Schema {
	t.Helper()
	schema, err := NewSchema("diff",
		CatAttr("a", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"),
		CatAttr("b", "b0", "b1", "b2"),
		CatAttr("c", "c0", "c1"),
		CatAttr("d", "d0", "d1", "d2", "d3", "d4"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// diffTuples generates a fresh tuple slice (New takes ownership and
// rewrites IDs, so each DB needs its own copy) with skewed value
// frequencies.
func diffTuples(rng *rand.Rand, n int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		a := rng.Intn(8)
		if rng.Intn(4) != 0 {
			a = rng.Intn(2) // values 0–1 dominate
		}
		tuples[i] = Tuple{Vals: []int{
			a,
			rng.Intn(3),
			rng.Intn(2),
			rng.Intn(5),
		}}
	}
	return tuples
}

// diffQueries enumerates every 1-, 2- and 3-predicate query over the
// first value of each attribute plus a sample of random ones, so both
// sparse and dense intersections are covered.
func diffQueries(rng *rand.Rand, schema *Schema) []Query {
	var qs []Query
	qs = append(qs, EmptyQuery())
	m := len(schema.Attrs)
	for a := 0; a < m; a++ {
		for v := 0; v < schema.DomainSize(a); v++ {
			qs = append(qs, MustQuery(Predicate{Attr: a, Value: v}))
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			qs = append(qs, MustQuery(
				Predicate{Attr: a, Value: rng.Intn(schema.DomainSize(a))},
				Predicate{Attr: b, Value: rng.Intn(schema.DomainSize(b))},
			))
		}
	}
	for i := 0; i < 40; i++ {
		qs = append(qs, MustQuery(
			Predicate{Attr: 0, Value: rng.Intn(schema.DomainSize(0))},
			Predicate{Attr: 1, Value: rng.Intn(schema.DomainSize(1))},
			Predicate{Attr: 3, Value: rng.Intn(schema.DomainSize(3))},
		))
	}
	qs = append(qs, MustQuery(
		Predicate{Attr: 0, Value: 0},
		Predicate{Attr: 1, Value: 0},
		Predicate{Attr: 2, Value: 0},
		Predicate{Attr: 3, Value: 0},
	))
	return qs
}

// compareBackends runs every query against both databases and fails on
// the first divergence in tuples, overflow flag, or count.
func compareBackends(t *testing.T, want, got *DB, qs []Query, label string) {
	t.Helper()
	for _, q := range qs {
		rw, err := want.Execute(q)
		if err != nil {
			t.Fatalf("%s: reference Execute(%s): %v", label, q.Key(), err)
		}
		rg, err := got.Execute(q)
		if err != nil {
			t.Fatalf("%s: Execute(%s): %v", label, q.Key(), err)
		}
		if rg.Overflow != rw.Overflow || rg.Count != rw.Count || len(rg.Tuples) != len(rw.Tuples) {
			t.Fatalf("%s: query %s diverges: overflow %v/%v count %d/%d rows %d/%d",
				label, q.Key(), rg.Overflow, rw.Overflow, rg.Count, rw.Count, len(rg.Tuples), len(rw.Tuples))
		}
		for i := range rw.Tuples {
			if rg.Tuples[i].ID != rw.Tuples[i].ID {
				t.Fatalf("%s: query %s row %d: tuple %d, want %d",
					label, q.Key(), i, rg.Tuples[i].ID, rw.Tuples[i].ID)
			}
		}
		if cw, cg := want.TrueCount(q), got.TrueCount(q); cw != cg {
			t.Fatalf("%s: query %s TrueCount %d, want %d", label, q.Key(), cg, cw)
		}
	}
}

// TestPostingBackendsAgree is the differential test: the bitmap backend
// must be indistinguishable from the sorted-slice reference across modes
// and query shapes.
func TestPostingBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := diffSchema(t)
	const n = 30000
	base := diffTuples(rng, n)
	clone := func() []Tuple {
		out := make([]Tuple, len(base))
		for i := range base {
			out[i] = Tuple{Vals: append([]int{}, base[i].Vals...)}
		}
		return out
	}
	qs := diffQueries(rng, schema)
	for _, mode := range []CountMode{CountNone, CountExact} {
		ranker := HashRanker{Seed: 7}
		sorted, err := New(schema, clone(), ranker, Config{K: 50, CountMode: mode, Postings: PostingsSorted})
		if err != nil {
			t.Fatal(err)
		}
		bm, err := New(schema, clone(), ranker, Config{K: 50, CountMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		compareBackends(t, sorted, bm, qs, "bitmap/"+mode.String())
	}
}
