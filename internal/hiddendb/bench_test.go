package hiddendb

import (
	"fmt"
	"testing"
)

// benchSkewDB builds a database engineered for skewed posting lists: a
// selective attribute whose values each match ~1% of tuples, and a common
// attribute whose value 0 matches 95%, so the intersection pairs a sparse
// list with a dense one.
func benchSkewDB(b *testing.B, n int, mode CountMode) (*DB, Query) {
	b.Helper()
	rareVals := make([]string, 100)
	for i := range rareVals {
		rareVals[i] = fmt.Sprintf("r%02d", i)
	}
	schema, err := NewSchema("skew",
		CatAttr("rare", rareVals...),
		CatAttr("common", "yes", "no"),
		CatAttr("mid", "a", "b", "c", "d"),
	)
	if err != nil {
		b.Fatal(err)
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		common := 0
		if i%20 == 19 { // 95% share value 0
			common = 1
		}
		tuples[i] = Tuple{Vals: []int{i % 100, common, i % 4}}
	}
	db, err := New(schema, tuples, nil, Config{K: 100, CountMode: mode})
	if err != nil {
		b.Fatal(err)
	}
	q := MustQuery(
		Predicate{Attr: 0, Value: 0},
		Predicate{Attr: 1, Value: 0},
	)
	return db, q
}

// BenchmarkExecuteIntersect measures the posting-list intersection hot
// path on skewed lists (a ~1% list against a 95% list over 100k tuples).
func BenchmarkExecuteIntersect(b *testing.B) {
	for _, mode := range []CountMode{CountNone, CountExact} {
		b.Run(mode.String(), func(b *testing.B) {
			db, q := benchSkewDB(b, 100000, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryKey measures the canonical-key accessor the history cache
// and execution layer call on every lookup.
func BenchmarkQueryKey(b *testing.B) {
	preds := make([]Predicate, 8)
	for i := range preds {
		preds[i] = Predicate{Attr: i, Value: i % 3}
	}
	q := MustQuery(preds...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(q.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkQueryWith measures extending a query one predicate at a time,
// the walk's per-step query construction.
func BenchmarkQueryWith(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := EmptyQuery()
		for a := 0; a < 8; a++ {
			q = q.With(a, a%3)
		}
		if q.Len() != 8 {
			b.Fatal("bad query")
		}
	}
}
