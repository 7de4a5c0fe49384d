package hiddendb

import (
	"fmt"
	"strings"
	"testing"
)

// The hot-path allocation ceilings below are regression guards for the
// zero-allocation query pipeline: Key/Hash must stay free, and Execute
// must allocate only its Result envelope and tuple headers (the
// intersection runs on pooled scratch and the returned tuples share the
// database's storage); a row-less overflow answer, only the envelope.

func TestQueryKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	q := MustQuery(
		Predicate{Attr: 0, Value: 3},
		Predicate{Attr: 4, Value: 1},
		Predicate{Attr: 9, Value: 12},
	)
	n := testing.AllocsPerRun(200, func() {
		if q.Key() == "" || q.Hash() == 0 {
			t.Fatal("bad signature")
		}
	})
	if n != 0 {
		t.Fatalf("Key/Hash allocated %.1f per call, want 0", n)
	}
}

func TestQueryIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	q := MustQuery(Predicate{0, 1}, Predicate{2, 0}, Predicate{5, 3})
	n := testing.AllocsPerRun(200, func() {
		sum := 0
		for i := 0; i < q.Len(); i++ {
			sum += q.Pred(i).Value
		}
		if sum == 0 {
			t.Fatal("no predicates seen")
		}
	})
	if n != 0 {
		t.Fatalf("predicate iteration allocated %.1f per call, want 0", n)
	}
}

func TestDBExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	db, q := allocTestDB(t, CountNone)
	// Warm the scratch pool so the measurement sees steady state.
	if _, err := db.Execute(q); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := db.Execute(q); err != nil {
			t.Fatal(err)
		}
	})
	// One Result plus one tuple-header slice; a little slack for pool
	// refills after an unlucky GC.
	if n > 3 {
		t.Fatalf("Execute allocated %.1f per call, want <= 3", n)
	}
}

func TestDBExecuteExactCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	db, q := allocTestDB(t, CountExact)
	if _, err := db.Execute(q); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		res, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count == CountAbsent {
			t.Fatal("exact count missing")
		}
	})
	if n > 3 {
		t.Fatalf("Execute (exact counts) allocated %.1f per call, want <= 3", n)
	}
}

func TestDBExecuteRowlessOverflowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	db, q := allocTestDB(t, CountNone)
	res, err := db.ExecuteRows(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 0 {
		t.Fatalf("want a row-less overflow answer, got overflow %v with %d rows", res.Overflow, len(res.Tuples))
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := db.ExecuteRows(q, false); err != nil {
			t.Fatal(err)
		}
	})
	// The Result header alone: no rows are built.
	if n > 1 {
		t.Fatalf("row-less overflow ExecuteRows allocated %.1f per call, want <= 1", n)
	}
}

// allocTestDB builds a small database and a two-predicate query that
// overflows K, so both the truncated scan and the exact-count full scan
// are exercised.
func allocTestDB(t *testing.T, mode CountMode) (*DB, Query) {
	t.Helper()
	schema := MustSchema("alloc",
		CatAttr("a", "x", "y", "z"),
		CatAttr("b", "p", "q"),
	)
	tuples := make([]Tuple, 2000)
	for i := range tuples {
		tuples[i] = Tuple{Vals: []int{i % 3, i % 2}}
	}
	db, err := New(schema, tuples, nil, Config{K: 50, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db, MustQuery(Predicate{0, 0}, Predicate{1, 0})
}

func TestQueryFromSortedMatchesWith(t *testing.T) {
	// Every construction path must agree on the canonical signature.
	preds := []Predicate{{1, 2}, {4, 0}, {7, 5}}
	a := MustQuery(preds...)
	b, err := QueryFromSorted(preds)
	if err != nil {
		t.Fatal(err)
	}
	c := EmptyQuery().With(4, 0).With(7, 5).With(1, 2)
	for _, q := range []Query{b, c} {
		if q.Key() != a.Key() || q.Hash() != a.Hash() {
			t.Fatalf("signature mismatch: %q/%d vs %q/%d", q.Key(), q.Hash(), a.Key(), a.Hash())
		}
	}
	if _, err := QueryFromSorted([]Predicate{{3, 0}, {3, 1}}); err == nil {
		t.Fatal("QueryFromSorted accepted a duplicate attribute")
	}
	if _, err := QueryFromSorted([]Predicate{{5, 0}, {3, 1}}); err == nil {
		t.Fatal("QueryFromSorted accepted out-of-order predicates")
	}
}

func TestScratchSignatureHelpers(t *testing.T) {
	q := MustQuery(Predicate{0, 1}, Predicate{3, 2}, Predicate{8, 0})
	var buf []byte

	// AppendKeyWithout must agree with the Without construction.
	for _, attr := range []int{0, 3, 8, 5} {
		want := q.Without(attr)
		key, h := q.AppendKeyWithout(buf[:0], attr)
		if string(key) != want.Key() || h != want.Hash() {
			t.Fatalf("AppendKeyWithout(%d) = %q/%d, want %q/%d", attr, key, h, want.Key(), want.Hash())
		}
	}
	// Removing the only predicate must match the empty query's signature.
	one := MustQuery(Predicate{2, 2})
	key, h := one.AppendKeyWithout(nil, 2)
	if len(key) != 0 || h != EmptyQuery().Hash() {
		t.Fatalf("AppendKeyWithout to empty = %q/%d, want \"\"/%d", key, h, EmptyQuery().Hash())
	}

	// AppendKeyReplace must agree with the Without+With construction.
	for _, v := range []int{0, 1, 9} {
		want := q.Without(3).With(3, v)
		key, h := q.AppendKeyReplace(buf[:0], 3, v)
		if string(key) != want.Key() || h != want.Hash() {
			t.Fatalf("AppendKeyReplace(3,%d) = %q/%d, want %q/%d", v, key, h, want.Key(), want.Hash())
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("AppendKeyReplace of an unconstrained attribute did not panic")
		}
	}()
	q.AppendKeyReplace(nil, 4, 0)
}

func TestSignatureAllocsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	q := MustQuery(Predicate{0, 1}, Predicate{3, 2}, Predicate{8, 0})
	buf := make([]byte, 0, 64)
	n := testing.AllocsPerRun(200, func() {
		b, _ := q.AppendKeyWithout(buf[:0], 3)
		b, _ = q.AppendKeyReplace(b[:0], 8, 1)
		buf = b[:0]
	})
	if n != 0 {
		t.Fatalf("scratch signature rendering allocated %.1f per call, want 0", n)
	}
}

func FuzzQueryKeyRoundTrip(f *testing.F) {
	attrs := make([]Attribute, 16)
	vals := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	for i := range attrs {
		attrs[i] = CatAttr(fmt.Sprintf("attr%d", i), vals...)
	}
	schema := MustSchema("fuzz", attrs...)

	// Seeds: empty, shallow, unsorted, max-depth, and malformed keys.
	maxDepth := make([]string, 0, len(attrs))
	for i := range attrs {
		maxDepth = append(maxDepth, fmt.Sprintf("%d=%d", i, i%len(vals)))
	}
	f.Add("")
	f.Add("0=1")
	f.Add("3=2&0=7")
	f.Add(strings.Join(maxDepth, "&"))
	f.Add("15=7&14=0&0=0")
	f.Add("notakey")
	f.Add("1=")
	f.Add("1=999")
	f.Fuzz(func(t *testing.T, key string) {
		q, err := ParseQueryKey(schema, key)
		if err != nil {
			return // invalid keys may be rejected, never crash
		}
		// The canonical key must be a fixpoint: parsing it again yields an
		// identical signature and predicate list.
		q2, err := ParseQueryKey(schema, q.Key())
		if err != nil {
			t.Fatalf("canonical key %q failed to reparse: %v", q.Key(), err)
		}
		if q2.Key() != q.Key() || q2.Hash() != q.Hash() || q2.Len() != q.Len() {
			t.Fatalf("round trip drifted: %q/%d/%d vs %q/%d/%d",
				q.Key(), q.Hash(), q.Len(), q2.Key(), q2.Hash(), q2.Len())
		}
		for i := 0; i < q.Len(); i++ {
			if q.Pred(i) != q2.Pred(i) {
				t.Fatalf("predicate %d drifted: %+v vs %+v", i, q.Pred(i), q2.Pred(i))
			}
		}
	})
}
