package formclient

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// FuzzParseResultPage checks the one-pass result-page decoder against the
// DOM-based oracle (parseResultPage, oracle_test.go) on arbitrary bytes:
// whatever a misbehaving or adversarial site serves, never a panic, and
//
//   - with rows wanted, both return the same Result and next link, or
//     both fail with a page-format error;
//   - without rows wanted, the only differences allowed are that an
//     overflow page carries no rows and is not rejected for their
//     contents.
//
// The seeds add pages the simulated site renders, so mutations start
// from real result tables. The nightly fuzz smoke run (see
// .github/workflows/nightly.yml) extends them with 30s of
// coverage-guided exploration.
func FuzzParseResultPage(f *testing.F) {
	schema := datagen.Vehicles(50, 21).Schema
	m := schema.NumAttrs()

	f.Add("")
	f.Add("<html><body></body></html>")
	f.Add(`<div id="status" data-overflow="false"></div><div id="noresults"></div>`)
	f.Add(`<div id="status" data-overflow="true"></div>`)
	f.Add(`<div id="status" data-overflow="maybe"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><div id="count" data-count="37"></div><div id="noresults"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><div id="count" data-count="NaN"></div>`)
	f.Add(`<div id="status" data-overflow="false"></div><a id="next" href="/results?page=2"></a><table id="results"><tr><td>#3</td></tr></table>`)
	f.Add(`<div id="status" data-overflow="false"></div><table id="results"><tr><td>#0</td><td>junk</td><td></td><td></td><td></td><td></td></tr></table>`)
	for _, page := range sitePages(f, 3) {
		f.Add(page)
	}
	f.Add(`<table id=results><TR><Td>#1<td>honda<td>civic</TD><td>2005<td>9000<td>50000<td>red<td>used<td>manual<td>gas<td>4</table><p id=status data-overflow=false>`)
	f.Add(`<div id="status" data-overflow="true"></div><table id="results"><tr><td>#1</td><td>x</td></tr></table><a id="next" href="/search?page=1&amp;make=2">next</a>`)
	f.Add(`<div id=status data-overflow=false></div><table id=results><tr><td>#2<script>x</td></script></td><td><b>honda</b></td></tr></table>`)

	f.Fuzz(func(t *testing.T, body string) {
		want, wantNext, werr := parseResultPage(schema, body)
		got, next, err := decodeResultPage(schema, []byte(body), true)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decoder error %v, oracle error %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrPageFormat) {
				t.Fatalf("error %v is not ErrPageFormat", err)
			}
		} else {
			if next != wantNext {
				t.Fatalf("next %q, oracle %q", next, wantNext)
			}
			if diff := resultDiff(got, want); diff != "" {
				t.Fatalf("decoder and oracle disagree: %s", diff)
			}
			for i, tu := range got.Tuples {
				if len(tu.Vals) != m || len(tu.Nums) != m {
					t.Fatalf("tuple %d shape %d/%d vals/nums, want %d for schema", i, len(tu.Vals), len(tu.Nums), m)
				}
			}
		}

		lean, leanNext, lerr := decodeResultPage(schema, []byte(body), false)
		switch {
		case werr == nil:
			if lerr != nil {
				t.Fatalf("rows not wanted: error %v on a page the oracle accepts", lerr)
			}
			if leanNext != wantNext {
				t.Fatalf("rows not wanted: next %q, oracle %q", leanNext, wantNext)
			}
			if want.Overflow {
				want = &hiddendb.Result{Overflow: true, Count: want.Count}
			}
			if diff := resultDiff(lean, want); diff != "" {
				t.Fatalf("rows not wanted: %s", diff)
			}
		case lerr == nil:
			if !lean.Overflow || len(lean.Tuples) != 0 || !errors.Is(werr, errOracleRow) {
				t.Fatalf("rows not wanted: accepted (overflow %v, %d rows) a page the oracle rejects with %v",
					lean.Overflow, len(lean.Tuples), werr)
			}
		}
	})
}

// resultDiff describes how two results differ; empty when they agree
// field by field (NaN payloads compare equal).
func resultDiff(got, want *hiddendb.Result) string {
	if got.Overflow != want.Overflow || got.Count != want.Count || len(got.Tuples) != len(want.Tuples) {
		return fmt.Sprintf("(overflow %v, count %d, %d rows) vs (overflow %v, count %d, %d rows)",
			got.Overflow, got.Count, len(got.Tuples), want.Overflow, want.Count, len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := &got.Tuples[i], &want.Tuples[i]
		if g.ID != w.ID || !slices.Equal(g.Vals, w.Vals) || len(g.Nums) != len(w.Nums) {
			return fmt.Sprintf("row %d: %+v vs %+v", i, *g, *w)
		}
		for a := range w.Nums {
			if g.Nums[a] != w.Nums[a] && !(math.IsNaN(g.Nums[a]) && math.IsNaN(w.Nums[a])) {
				return fmt.Sprintf("row %d attr %d: payload %g vs %g", i, a, g.Nums[a], w.Nums[a])
			}
		}
	}
	return ""
}

// sitePages renders result pages the simulated site serves for a vehicles
// database — overflowing, valid, empty, counted and paginated — as decoder
// inputs.
func sitePages(tb testing.TB, seed int64) []string {
	tb.Helper()
	ds := datagen.Vehicles(120, seed)
	var pages []string
	for _, v := range []struct {
		k     int
		mode  hiddendb.CountMode
		pages int
	}{{12, hiddendb.CountExact, 0}, {20, hiddendb.CountNone, 8}, {5, hiddendb.CountApprox, 0}} {
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: v.k, CountMode: v.mode})
		if err != nil {
			tb.Fatal(err)
		}
		site := webform.NewServer(db, webform.Options{PageSize: v.pages})
		for _, q := range []string{"", "make=1", "make=0&model=47", "make=2&condition=1&color=3"} {
			rec := httptest.NewRecorder()
			site.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?"+q, nil))
			if rec.Code != http.StatusOK {
				tb.Fatalf("render %q: status %d", q, rec.Code)
			}
			pages = append(pages, rec.Body.String())
		}
	}
	return pages
}

// negativeRangeDB is a hidden database whose numeric attribute has
// negative bucket bounds ("-10--5", "-5-0"), as hiddendbd -csv cuts a
// column holding negative values.
func negativeRangeDB(tb testing.TB) *hiddendb.DB {
	tb.Helper()
	schema := hiddendb.MustSchema("readings", hiddendb.NumAttr("temp", -10, -5, 0, 5), hiddendb.BoolAttr("windy"))
	tuples := make([]hiddendb.Tuple, 30)
	for i := range tuples {
		temp := -10 + float64(i)/2
		tuples[i] = hiddendb.Tuple{Vals: []int{schema.Attrs[0].BucketOf(temp), i % 2}, Nums: []float64{temp, math.NaN()}}
	}
	db, err := hiddendb.New(schema, tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// FuzzFormPage feeds arbitrary bytes to decodeFormPage, the one decoder
// of a site's schema: whatever a misbehaving or adversarial site serves
// as its form page, never a panic, every error wraps ErrPageFormat, and
// every schema it accepts is valid. The seeds are the form pages the
// simulated site renders for the vehicles, jobs, boolean, Zipf and
// wide-categorical datasets and for negative numeric ranges. The nightly
// fuzz smoke run extends them.
func FuzzFormPage(f *testing.F) {
	dbs := []*hiddendb.DB{negativeRangeDB(f)}
	for _, ds := range []*datagen.Dataset{
		datagen.Vehicles(60, 1),
		datagen.Jobs(60, 2),
		datagen.IIDBoolean(6, 60, 0.5, 3),
		datagen.ZipfCategorical([]int{5, 4, 3}, 60, 1.0, 4),
		datagen.WideCategorical(3, 12, 60, 0.25, 5),
	} {
		db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
		if err != nil {
			f.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	for _, db := range dbs {
		rec := httptest.NewRecorder()
		webform.NewServer(db, webform.Options{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code != http.StatusOK {
			f.Fatalf("form page of %q: status %d", db.Schema().Name, rec.Code)
		}
		f.Add(rec.Body.String())
	}
	f.Add("")
	f.Add(`<form name="search"><select name="a"><option value="0">x</option><option value="0">y</option></select></form>`)
	f.Add(`<form name="search"><select name="p"><option value="0">-1e-05-0</option><option value="1">0-2e+300</option></select></form>`)

	f.Fuzz(func(t *testing.T, body string) {
		schema, err := decodeFormPage([]byte(body))
		if err != nil {
			if !errors.Is(err, ErrPageFormat) {
				t.Fatalf("error %v is not ErrPageFormat", err)
			}
			return
		}
		if err := schema.Validate(); err != nil {
			t.Fatalf("accepted an invalid schema: %v", err)
		}
	})
}
