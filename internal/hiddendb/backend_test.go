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

// TestPostingBackendsAgree is the differential test: Execute's bitmap
// intersections must answer exactly as a scan of the tuples in rank
// order does — the first K matches, overflow iff more than K match, and
// the exact total under CountExact — across count modes and query shapes.
// ExecuteRows without overflow rows must give the same answers, except
// that an overflowing one carries no rows.
func TestPostingBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := diffSchema(t)
	base := diffTuples(rng, 30000)
	qs := diffQueries(rng, schema)
	for _, mode := range []CountMode{CountNone, CountExact} {
		db, err := New(schema, append([]Tuple(nil), base...), HashRanker{Seed: 7}, Config{K: 50, CountMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		vals, ids := db.ValsByRank()
		for _, q := range qs {
			var want []int
			total := 0
			for i, v := range vals {
				if q.Matches(v) {
					total++
					if len(want) < db.K() {
						want = append(want, ids[i])
					}
				}
			}
			wantCount := CountAbsent
			if mode == CountExact {
				wantCount = total
			}
			res, err := db.Execute(q)
			if err != nil {
				t.Fatalf("%s: Execute(%s): %v", mode, q.Key(), err)
			}
			if res.Overflow != (total > db.K()) || res.Count != wantCount || len(res.Tuples) != len(want) {
				t.Fatalf("%s: query %s: overflow %v count %d rows %d, scan has %d matches (count %d, %d rows)",
					mode, q.Key(), res.Overflow, res.Count, len(res.Tuples), total, wantCount, len(want))
			}
			for i, tu := range res.Tuples {
				if tu.ID != want[i] {
					t.Fatalf("%s: query %s row %d: tuple %d, scan has %d", mode, q.Key(), i, tu.ID, want[i])
				}
			}
			bare, err := db.ExecuteRows(q, false)
			if err != nil {
				t.Fatalf("%s: ExecuteRows(%s, false): %v", mode, q.Key(), err)
			}
			wantRows := len(want)
			if bare.Overflow {
				wantRows = 0
			}
			if bare.Overflow != res.Overflow || bare.Count != res.Count || len(bare.Tuples) != wantRows {
				t.Fatalf("%s: query %s without overflow rows: overflow %v count %d rows %d, want %v, %d, %d",
					mode, q.Key(), bare.Overflow, bare.Count, len(bare.Tuples), res.Overflow, res.Count, wantRows)
			}
			for i, tu := range bare.Tuples {
				if tu.ID != want[i] {
					t.Fatalf("%s: query %s without overflow rows, row %d: tuple %d, scan has %d", mode, q.Key(), i, tu.ID, want[i])
				}
			}
		}
	}
}
