package formclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

func vehiclesServer(t *testing.T, n, k int, mode hiddendb.CountMode, opts webform.Options) (*hiddendb.DB, *httptest.Server) {
	t.Helper()
	db := vehiclesDB(t, n, k, mode)
	srv := httptest.NewServer(webform.NewServer(db, opts))
	t.Cleanup(srv.Close)
	return db, srv
}

func vehiclesDB(t *testing.T, n, k int, mode hiddendb.CountMode) *hiddendb.DB {
	t.Helper()
	ds := datagen.Vehicles(n, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestLocalConn(t *testing.T) {
	ds := datagen.IIDBoolean(4, 50, 0.5, 1)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewLocal(db)
	ctx := context.Background()
	schema, err := conn.Schema(ctx)
	if err != nil || schema.NumAttrs() != 4 {
		t.Fatalf("Schema: %v %v", schema, err)
	}
	res, err := conn.Execute(ctx, hiddendb.EmptyQuery())
	if err != nil || !res.Overflow {
		t.Fatalf("Execute: %+v %v", res, err)
	}
	if got := conn.Stats().Queries; got != 1 {
		t.Fatalf("Queries = %d", got)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := conn.Execute(cancelled, hiddendb.EmptyQuery()); err == nil {
		t.Fatal("cancelled context not honored")
	}
	if _, err := conn.Schema(cancelled); err == nil {
		t.Fatal("cancelled context not honored by Schema")
	}
}

func TestHTTPSchemaDiscovery(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 50, hiddendb.CountExact, webform.Options{})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	schema, err := conn.Schema(context.Background())
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	want := db.Schema()
	if schema.NumAttrs() != want.NumAttrs() {
		t.Fatalf("discovered %d attrs, want %d", schema.NumAttrs(), want.NumAttrs())
	}
	for i := range want.Attrs {
		wa, ga := &want.Attrs[i], &schema.Attrs[i]
		if wa.Name != ga.Name {
			t.Errorf("attr %d name %q, want %q", i, ga.Name, wa.Name)
		}
		if wa.Kind != ga.Kind {
			t.Errorf("attr %q kind %v, want %v", wa.Name, ga.Kind, wa.Kind)
		}
		if len(wa.Values) != len(ga.Values) {
			t.Errorf("attr %q domain %d, want %d", wa.Name, len(ga.Values), len(wa.Values))
			continue
		}
		for j := range wa.Values {
			if wa.Values[j] != ga.Values[j] {
				t.Errorf("attr %q value %d = %q, want %q", wa.Name, j, ga.Values[j], wa.Values[j])
			}
		}
		for j := range wa.Buckets {
			if j < len(ga.Buckets) && wa.Buckets[j] != ga.Buckets[j] {
				t.Errorf("attr %q bucket %d = %v, want %v", wa.Name, j, ga.Buckets[j], wa.Buckets[j])
			}
		}
	}
	// Discovery is cached: a second call makes no new HTTP requests.
	before := conn.Stats().HTTPRequests
	if _, err := conn.Schema(context.Background()); err != nil {
		t.Fatal(err)
	}
	if conn.Stats().HTTPRequests != before {
		t.Error("schema discovery not cached")
	}
}

func TestHTTPExecuteMatchesLocal(t *testing.T) {
	db, srv := vehiclesServer(t, 400, 30, hiddendb.CountExact, webform.Options{})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	// Rows wanted: overflow answers carry their visible top-k too, so
	// every answer compares in full.
	ctx := WantRows(context.Background())

	queries := []hiddendb.Query{
		hiddendb.EmptyQuery(),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0}),
		hiddendb.MustQuery(
			hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0},
			hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 1},
			hiddendb.Predicate{Attr: datagen.VehAttrColor, Value: 2}),
		// Mismatched make/model: empty by construction.
		hiddendb.MustQuery(
			hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 0},
			hiddendb.Predicate{Attr: datagen.VehAttrModel, Value: 47}),
	}
	for _, q := range queries {
		want, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := conn.Execute(ctx, q)
		if err != nil {
			t.Fatalf("Execute(%v): %v", q, err)
		}
		if got.Overflow != want.Overflow || got.Count != want.Count || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("query %v: got (ov=%v,count=%d,n=%d), want (ov=%v,count=%d,n=%d)",
				q, got.Overflow, got.Count, len(got.Tuples), want.Overflow, want.Count, len(want.Tuples))
		}
		for i := range want.Tuples {
			wt, gt := &want.Tuples[i], &got.Tuples[i]
			if wt.ID != gt.ID {
				t.Fatalf("query %v row %d: id %d, want %d", q, i, gt.ID, wt.ID)
			}
			for a := range wt.Vals {
				if wt.Vals[a] != gt.Vals[a] {
					t.Fatalf("query %v row %d attr %d: %d, want %d", q, i, a, gt.Vals[a], wt.Vals[a])
				}
			}
			wp, _ := wt.Num(datagen.VehAttrPrice)
			gp, _ := gt.Num(datagen.VehAttrPrice)
			if wp != gp {
				t.Fatalf("query %v row %d price: %g, want %g", q, i, gp, wp)
			}
		}
	}
	if conn.Stats().Queries != int64(len(queries)) {
		t.Errorf("Queries = %d, want %d", conn.Stats().Queries, len(queries))
	}

	// Without the rows wanted, an overflow answer is its flag and count
	// alone; a valid answer still arrives whole.
	overflowed := false
	for _, q := range queries {
		want, _ := db.Execute(q)
		got, err := conn.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Execute(%v): %v", q, err)
		}
		wantRows := len(want.Tuples)
		if want.Overflow {
			overflowed, wantRows = true, 0
		}
		if got.Overflow != want.Overflow || got.Count != want.Count || len(got.Tuples) != wantRows {
			t.Fatalf("query %v without rows: got (ov=%v,count=%d,n=%d), want (ov=%v,count=%d,n=%d)",
				q, got.Overflow, got.Count, len(got.Tuples), want.Overflow, want.Count, wantRows)
		}
	}
	if !overflowed {
		t.Fatal("no query overflowed; the rows-not-wanted case is untested")
	}
}

func TestHTTPCountAbsent(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 10, hiddendb.CountNone, webform.Options{})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != hiddendb.CountAbsent {
		t.Fatalf("Count = %d, want CountAbsent", res.Count)
	}
}

func TestHTTPRateLimitRetry(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	opts := webform.Options{RatePerSec: 1000, Burst: 1, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(500 * time.Microsecond) // half a token per request
		return now
	}}
	_, srv := vehiclesServer(t, 50, 10, hiddendb.CountNone, opts)
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep, MaxRetries: 10})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if conn.Stats().RateLimitRetries == 0 {
		t.Error("expected some rate-limit retries")
	}
	if conn.Stats().HTTPRequests <= conn.Stats().Queries {
		t.Error("retries should inflate HTTPRequests beyond Queries")
	}
}

func TestHTTPRateLimitExhaustion(t *testing.T) {
	fixed := time.Unix(0, 0)
	opts := webform.Options{RatePerSec: 0.001, Burst: 1, Now: func() time.Time { return fixed }}
	_, srv := vehiclesServer(t, 50, 10, hiddendb.CountNone, opts)
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep, MaxRetries: 3})
	ctx := context.Background()
	if _, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
		t.Fatalf("first query: %v", err)
	}
	_, err := conn.Execute(ctx, hiddendb.EmptyQuery())
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
}

func TestHTTPBadPages(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`<html><body>no form here</body></html>`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	if _, err := conn.Schema(context.Background()); !errors.Is(err, ErrPageFormat) {
		t.Fatalf("want ErrPageFormat, got %v", err)
	}
}

func TestHTTPMalformedResultPage(t *testing.T) {
	schema := datagen.VehiclesSchema()
	for name, page := range map[string]string{
		"nostatus":    `<html><body><p>hi</p></body></html>`,
		"badoverflow": `<div id="status" data-overflow="maybe">x</div>`,
		"badcount":    `<div id="status" data-overflow="false"></div><span id="count" data-count="lots"></span>`,
		"shortrow": `<div id="status" data-overflow="false"></div><table id="results">
			<tr><td>#1</td><td>toyota</td></tr></table>`,
		"badlabel": `<div id="status" data-overflow="false"></div><table id="results">
			<tr><td>#1</td><td>yugo</td><td>camry</td><td>2005</td><td>9000</td><td>50000</td><td>red</td><td>used</td><td>automatic</td><td>gas</td><td>4</td></tr></table>`,
		"outofbucket": `<div id="status" data-overflow="false"></div><table id="results">
			<tr><td>#1</td><td>toyota</td><td>camry</td><td>2005</td><td>999999999</td><td>50000</td><td>red</td><td>used</td><td>automatic</td><td>gas</td><td>4</td></tr></table>`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := decodeResultPage(schema, []byte(page), true); !errors.Is(err, ErrPageFormat) {
				t.Fatalf("want ErrPageFormat, got %v", err)
			}
		})
	}
}

func TestParseResultPageBucketLabelFallback(t *testing.T) {
	// A site that renders the bucket label instead of the raw value still
	// parses; the raw payload is simply absent.
	schema := hiddendb.MustSchema("s", hiddendb.NumAttr("price", 0, 100, 200))
	page := `<div id="status" data-overflow="false"></div><table id="results">
		<tr><td>#0</td><td>100-200</td></tr></table>`
	res, _, err := decodeResultPage(schema, []byte(page), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0].Vals[0] != 1 {
		t.Fatalf("bucket = %d, want 1", res.Tuples[0].Vals[0])
	}
	if _, ok := res.Tuples[0].Num(0); ok {
		t.Fatal("raw payload should be absent")
	}
}

func TestHTTPServerErrorPropagates(t *testing.T) {
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"))
	db, err := hiddendb.New(s, []hiddendb.Tuple{{Vals: []int{0}}}, nil,
		hiddendb.Config{K: 5, QueryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
	defer srv.Close()
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	if _, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err != nil {
		t.Fatalf("first: %v", err)
	}
	// Second query exceeds the backend budget -> 503 -> error (no retry).
	if _, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 error, got %v", err)
	}
}

func TestInferAttr(t *testing.T) {
	if a := inferAttr("x", []string{"false", "true"}); a.Kind != hiddendb.KindBool {
		t.Error("bool not inferred")
	}
	a := inferAttr("p", []string{"0-10", "10-20"})
	if a.Kind != hiddendb.KindNumeric || len(a.Buckets) != 2 || a.Buckets[1].Hi != 20 {
		t.Errorf("numeric not inferred: %+v", a)
	}
	for _, labels := range [][]string{
		{"red", "blue"},
		{"3-series", "5-series"},   // dashes but not numeric ranges
		{"0-10", "20-30"},          // not contiguous
		{"10-0", "0-10"},           // inverted
		{"0-10", "10-20", "cheap"}, // mixed
		{"-5", "5-"},               // malformed
	} {
		if a := inferAttr("x", labels); a.Kind != hiddendb.KindCategorical {
			t.Errorf("labels %v inferred as %v, want categorical", labels, a.Kind)
		}
	}
}

func TestAPIConn(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 25, hiddendb.CountApprox, webform.Options{})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	schema, err := conn.Schema(ctx)
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if !schema.Equal(db.Schema()) {
		t.Fatal("API schema differs from server schema")
	}
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 1})
	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != want.Overflow || got.Count != want.Count || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("API result mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Tuples {
		if want.Tuples[i].ID != got.Tuples[i].ID {
			t.Fatal("tuple order differs")
		}
		wp, wok := want.Tuples[i].Num(datagen.VehAttrPrice)
		gp, gok := got.Tuples[i].Num(datagen.VehAttrPrice)
		if wok != gok || wp != gp {
			t.Fatal("numeric payload differs")
		}
		if v, ok := got.Tuples[i].Num(datagen.VehAttrMake); ok {
			t.Fatalf("non-numeric attr has payload %g", v)
		}
	}
	if conn.Stats().Queries != 1 {
		t.Errorf("Queries = %d", conn.Stats().Queries)
	}
	// Approximate counts are still deterministic through the API.
	again, err := conn.Execute(ctx, q)
	if err != nil || again.Count != got.Count {
		t.Error("approx count changed between identical queries")
	}
}

// TestAPIRejectsOutOfDomainValues: a site whose /api/search rows carry
// value indexes outside the discovered domains fails the query with
// ErrPageFormat, the way the HTML scraper fails an unknown label.
// Accepting the row would let the sampler save a tuple that the sample
// store then refuses to read back.
func TestAPIRejectsOutOfDomainValues(t *testing.T) {
	ds := datagen.Vehicles(100, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	site := webform.NewServer(db, webform.Options{})
	m := ds.Schema.NumAttrs()
	for _, tc := range []struct {
		name      string
		attr, val int
	}{
		{"one past the domain", datagen.VehAttrMake, ds.Schema.DomainSize(datagen.VehAttrMake)},
		{"far past the domain", datagen.VehAttrMake, 9999},
		{"negative", m - 1, -3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]int, m)
			vals[tc.attr] = tc.val
			row, err := json.Marshal(vals)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/search" {
					w.Header().Set("Content-Type", "application/json")
					fmt.Fprintf(w, `{"overflow":false,"rows":[{"id":7,"vals":%s}]}`, row)
					return
				}
				site.ServeHTTP(w, r)
			}))
			defer srv.Close()
			conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client()})
			res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
			if !errors.Is(err, ErrPageFormat) {
				t.Fatalf("Execute = %+v, %v; want ErrPageFormat", res, err)
			}
		})
	}
}

func TestHTTPAndAPIAgree(t *testing.T) {
	_, srv := vehiclesServer(t, 200, 40, hiddendb.CountExact, webform.Options{})
	htmlConn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	apiConn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx := context.Background()
	hs, err := htmlConn.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	as, err := apiConn.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// HTML discovery derives the name from the page title; compare attrs.
	if hs.NumAttrs() != as.NumAttrs() {
		t.Fatalf("attr counts differ: %d vs %d", hs.NumAttrs(), as.NumAttrs())
	}
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrCondition, Value: 0})
	hr, err := htmlConn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := apiConn.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Overflow != ar.Overflow || hr.Count != ar.Count || len(hr.Tuples) != len(ar.Tuples) {
		t.Fatalf("HTML and API disagree: (%v,%d,%d) vs (%v,%d,%d)",
			hr.Overflow, hr.Count, len(hr.Tuples), ar.Overflow, ar.Count, len(ar.Tuples))
	}
	for i := range hr.Tuples {
		if hr.Tuples[i].ID != ar.Tuples[i].ID {
			t.Fatal("row order differs between HTML and API")
		}
	}
}

func TestHTTPContextCancellation(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 10, hiddendb.CountNone, webform.Options{})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestParseRowMissingID(t *testing.T) {
	schema := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"))
	page := `<div id="status" data-overflow="false"></div><table id="results">
		<tr><td>n/a</td><td>true</td></tr></table>`
	res, _, err := decodeResultPage(schema, []byte(page), true)
	if err != nil {
		t.Fatal(err)
	}
	if tu := res.Tuples[0]; tu.ID != -1 || tu.Vals[0] != 1 {
		t.Fatalf("tuple = %+v", tu)
	}
}

func TestNumericInfersNaNForCategorical(t *testing.T) {
	_, srv := vehiclesServer(t, 100, 20, hiddendb.CountNone, webform.Options{})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
	res, err := conn.Execute(context.Background(),
		hiddendb.MustQuery(hiddendb.Predicate{Attr: datagen.VehAttrMake, Value: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Tuples {
		if _, ok := res.Tuples[i].Num(datagen.VehAttrMake); ok {
			t.Fatal("categorical attribute has numeric payload")
		}
		if math.IsNaN(res.Tuples[i].Nums[datagen.VehAttrPrice]) {
			t.Fatal("numeric attribute missing payload")
		}
	}
}
