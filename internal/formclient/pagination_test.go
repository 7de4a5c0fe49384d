package formclient

import (
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

func TestHTTPFollowsPagination(t *testing.T) {
	db, srv := vehiclesServer(t, 600, 120, hiddendb.CountExact,
		webform.Options{PageSize: 50})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := WantRows(context.Background())

	// Broad query: 120 visible rows over 3 pages; with its rows wanted
	// the connector assembles them all in rank order as one logical
	// query.
	want, err := db.Execute(hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	got, err := conn.Execute(ctx, hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Overflow || len(want.Tuples) != 120 {
		t.Fatalf("fixture: overflow %v with %d rows, want an overflow with 120", want.Overflow, len(want.Tuples))
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("assembled %d rows, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("row %d: id %d, want %d", i, got.Tuples[i].ID, want.Tuples[i].ID)
		}
	}
	if got.Overflow != want.Overflow || got.Count != want.Count {
		t.Fatalf("meta mismatch: %+v vs %+v", got, want)
	}
	st := conn.Stats()
	if st.Queries != 1 {
		t.Errorf("logical queries = %d, want 1", st.Queries)
	}
	// Form page + 3 result pages.
	if st.HTTPRequests != 4 {
		t.Errorf("HTTP requests = %d, want 4 (form + 3 pages)", st.HTTPRequests)
	}
}

func TestHTTPSkipsOverflowPagesByDefault(t *testing.T) {
	db, srv := vehiclesServer(t, 600, 120, hiddendb.CountExact,
		webform.Options{PageSize: 50})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	got, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Nobody asked for the rows: the overflow flag and the count are the
	// whole answer, and page one is the only request.
	if !got.Overflow || got.Count != want.Count {
		t.Fatalf("got overflow %v count %d, want overflow with count %d", got.Overflow, got.Count, want.Count)
	}
	if len(got.Tuples) != 0 {
		t.Fatalf("rows = %d, want none", len(got.Tuples))
	}
	if st := conn.Stats(); st.HTTPRequests != 2 {
		t.Fatalf("HTTP requests = %d, want 2 (form + page 1)", st.HTTPRequests)
	}
}

func TestHTTPPaginationMatchesDirectForNarrowQueries(t *testing.T) {
	db, srv := vehiclesServer(t, 600, 120, hiddendb.CountExact,
		webform.Options{PageSize: 7})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})
	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("rows = %d, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		for a := range want.Tuples[i].Vals {
			if got.Tuples[i].Vals[a] != want.Tuples[i].Vals[a] {
				t.Fatal("cell mismatch across pagination")
			}
		}
	}
}

func TestSamplingThroughPaginatedSite(t *testing.T) {
	// The answer a drill-down's last level reads: an overflowing query
	// whose rows are wanted arrives with its whole visible top-k (60 rows
	// over pages of 25); the same query without them costs one request.
	db, srv := vehiclesServer(t, 400, 60, hiddendb.CountNone,
		webform.Options{PageSize: 25})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	schema, err := conn.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumAttrs() != 10 {
		t.Fatalf("attrs = %d", schema.NumAttrs())
	}
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1})
	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Overflow || len(want.Tuples) != 60 {
		t.Fatalf("fixture: overflow %v with %d rows, want an overflow with 60", want.Overflow, len(want.Tuples))
	}
	before := conn.Stats().HTTPRequests
	res, err := conn.Execute(WantRows(ctx), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 60 {
		t.Fatalf("wanted overflow: %v with %d rows, want 60", res.Overflow, len(res.Tuples))
	}
	for i := range want.Tuples {
		if res.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("row %d: id %d, want %d", i, res.Tuples[i].ID, want.Tuples[i].ID)
		}
	}
	if got := conn.Stats().HTTPRequests - before; got != 3 {
		t.Fatalf("wanted overflow cost %d requests, want 3 pages", got)
	}
	before = conn.Stats().HTTPRequests
	res, err = conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 0 {
		t.Fatalf("unwanted overflow: %v with %d rows, want the flag alone", res.Overflow, len(res.Tuples))
	}
	if got := conn.Stats().HTTPRequests - before; got != 1 {
		t.Fatalf("unwanted overflow cost %d requests, want 1", got)
	}
}
