package formclient

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// vehiclesPage renders the site's result page for the root query over n
// vehicles with top-k limit k: an overflow page of k rows when n > k.
func vehiclesPage(tb testing.TB, n, k int) (*hiddendb.Schema, []byte) {
	tb.Helper()
	ds := datagen.Vehicles(n, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: k, CountMode: hiddendb.CountExact})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	webform.NewServer(db, webform.Options{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("render: status %d", rec.Code)
	}
	return ds.Schema, rec.Body.Bytes()
}

// TestDecodeMatchesOracle checks the decoder against the DOM oracle on the
// site's own pages, overflowing and valid, with rows wanted and not, and
// on variants whose cells need their character references expanded
// exactly once.
func TestDecodeMatchesOracle(t *testing.T) {
	var pages []string
	for _, page := range sitePages(t, 5) {
		pages = append(pages, page,
			strings.Replace(page, `">#`, `">&amp;#49;`, 1),
			strings.Replace(page, `">#`, `">&#35;`, 1),
			strings.Replace(page, `data-count="`, `data-count="&#49;`, 1))
	}
	for _, page := range pages {
		want, wantNext, err := parseResultPage(datagen.VehiclesSchema(), page)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, wanted := range []bool{true, false} {
			got, next, err := decodeResultPage(datagen.VehiclesSchema(), []byte(page), wanted)
			if err != nil {
				t.Fatalf("decode (rows wanted %v): %v", wanted, err)
			}
			w := want
			if want.Overflow && !wanted {
				w = &hiddendb.Result{Overflow: true, Count: want.Count}
			}
			if diff := resultDiff(got, w); diff != "" || next != wantNext {
				t.Fatalf("rows wanted %v: %s; next %q vs %q", wanted, diff, next, wantNext)
			}
		}
	}
}

// TestDecodeResultPageAllocs pins the decoder's allocation budget: a page
// decodes into one backing array each for its tuples, values and payloads,
// so its allocations do not grow with its row count, and an overflow page
// whose rows nobody wants costs its Result alone.
func TestDecodeResultPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	allocs := func(n, k int, wanted bool) float64 {
		schema, page := vehiclesPage(t, n, k)
		return testing.AllocsPerRun(50, func() {
			res, _, err := decodeResultPage(schema, page, wanted)
			if err != nil {
				t.Fatal(err)
			}
			if wanted && len(res.Tuples) != k {
				t.Fatalf("decoded %d rows, want %d", len(res.Tuples), k)
			}
		})
	}
	small, large := allocs(500, 10, true), allocs(500, 100, true)
	if large > small {
		t.Errorf("100-row page: %.0f allocs, 10-row page: %.0f; allocations grow with rows", large, small)
	}
	if small > 4 {
		t.Errorf("10-row page: %.0f allocs, want <= 4 (Result, tuples, values, payloads)", small)
	}
	if skipped := allocs(500, 100, false); skipped > 1 {
		t.Errorf("unwanted 100-row overflow page: %.0f allocs, want <= 1 (the Result)", skipped)
	}
}

// BenchmarkDecodeResultPage decodes one 100-row vehicles overflow page with
// the DOM oracle, with the decoder and its rows wanted, and with the
// decoder skipping the rows.
func BenchmarkDecodeResultPage(b *testing.B) {
	schema, page := vehiclesPage(b, 2000, 100)
	b.Run("dom", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := parseResultPage(schema, string(page)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, wanted := range []bool{true, false} {
		name := "skip-rows"
		if wanted {
			name = "rows"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(page)))
			for b.Loop() {
				if _, _, err := decodeResultPage(schema, page, wanted); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
