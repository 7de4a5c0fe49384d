package webform

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/htmlx"
	"hdsampler/internal/telemetry"
)

func testDB(t *testing.T, k int, mode hiddendb.CountMode) *hiddendb.DB {
	t.Helper()
	s := hiddendb.MustSchema("testdb",
		hiddendb.CatAttr("make", "toyota", "honda", "ford"),
		hiddendb.BoolAttr("used"),
		hiddendb.NumAttr("price", 0, 100, 200))
	nan := math.NaN()
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 0}, Nums: []float64{nan, nan, 50}},
		{Vals: []int{0, 1, 1}, Nums: []float64{nan, nan, 150}},
		{Vals: []int{1, 1, 0}, Nums: []float64{nan, nan, 99}},
		{Vals: []int{2, 0, 1}, Nums: []float64{nan, nan, 101}},
		{Vals: []int{0, 1, 0}, Nums: []float64{nan, nan, 10}},
	}
	db, err := hiddendb.New(s, tuples, hiddendb.StaticRanker{Scores: []float64{5, 4, 3, 2, 1}},
		hiddendb.Config{K: k, CountMode: mode, CountNoise: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestFormPage(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountExact), Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	root := htmlx.Parse(body)
	form := htmlx.FormByName(root, "search")
	if form == nil {
		t.Fatal("search form missing")
	}
	if form.Action != "/search" || form.Method != "GET" {
		t.Fatalf("form = %+v", form)
	}
	if len(form.Selects) != 3 {
		t.Fatalf("selects = %d, want 3", len(form.Selects))
	}
	mk := form.SelectByName("make")
	if mk == nil {
		t.Fatal("make select missing")
	}
	// "any" + 3 values.
	if len(mk.Options) != 4 || mk.Options[0].Value != "" || mk.Options[1].Label != "toyota" {
		t.Fatalf("make options = %+v", mk.Options)
	}
	price := form.SelectByName("price")
	if price.Options[1].Label != "0-100" {
		t.Fatalf("price bucket label = %q", price.Options[1].Label)
	}
	meta := root.ByID("meta")
	if meta == nil {
		t.Fatal("meta missing")
	}
	if k, _ := meta.Attr("data-k"); k != "2" {
		t.Errorf("data-k = %q", k)
	}
	if cm, _ := meta.Attr("data-countmode"); cm != "exact" {
		t.Errorf("data-countmode = %q", cm)
	}
}

func TestFormPage404OnOtherPath(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountNone), Options{}))
	defer srv.Close()
	if code, _ := get(t, srv, "/nonsense"); code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

func TestSearchValidResult(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 10, hiddendb.CountExact), Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/search?make=0&used=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	root := htmlx.Parse(body)
	status := root.ByID("status")
	if ov, _ := status.Attr("data-overflow"); ov != "false" {
		t.Fatalf("overflow = %q", ov)
	}
	count := root.ByID("count")
	if c, _ := count.Attr("data-count"); c != "2" {
		t.Fatalf("count = %q, want 2", c)
	}
	tbl := htmlx.TableByID(root, "results")
	if tbl == nil {
		t.Fatal("results table missing")
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	// Header: item + 3 attrs.
	if len(tbl.Header) != 4 || tbl.Header[1] != "make" {
		t.Fatalf("header = %v", tbl.Header)
	}
	// Rank order: tuple 1 (score 4) before tuple 4 (score 1).
	if tbl.Rows[0][0].Text != "#1" || tbl.Rows[1][0].Text != "#4" {
		t.Fatalf("row ids = %q,%q", tbl.Rows[0][0].Text, tbl.Rows[1][0].Text)
	}
	// Numeric cell carries the raw price.
	if tbl.Rows[0][3].Text != "150" {
		t.Fatalf("price cell = %q", tbl.Rows[0][3].Text)
	}
}

func TestSearchOverflow(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountNone), Options{}))
	defer srv.Close()
	_, body := get(t, srv, "/search")
	root := htmlx.Parse(body)
	if ov, _ := root.ByID("status").Attr("data-overflow"); ov != "true" {
		t.Fatalf("overflow = %q", ov)
	}
	if root.ByID("count") != nil {
		t.Error("count rendered despite CountNone")
	}
	tbl := htmlx.TableByID(root, "results")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want k=2", len(tbl.Rows))
	}
}

func TestSearchUnderflow(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountExact), Options{}))
	defer srv.Close()
	_, body := get(t, srv, "/search?make=1&used=0")
	root := htmlx.Parse(body)
	if ov, _ := root.ByID("status").Attr("data-overflow"); ov != "false" {
		t.Fatalf("overflow = %q", ov)
	}
	if root.ByID("noresults") == nil {
		t.Error("noresults marker missing")
	}
	if htmlx.TableByID(root, "results") != nil {
		t.Error("results table rendered for empty result")
	}
	if c, _ := root.ByID("count").Attr("data-count"); c != "0" {
		t.Errorf("count = %q, want 0", c)
	}
}

func TestSearchIgnoresUnknownAndEmptyParams(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 10, hiddendb.CountExact), Options{}))
	defer srv.Close()
	_, body := get(t, srv, "/search?make=&utm_source=ad&used=1")
	root := htmlx.Parse(body)
	if c, _ := root.ByID("count").Attr("data-count"); c != "3" {
		t.Fatalf("count = %q, want 3 (used=1 only)", c)
	}
}

func TestSearchBadParams(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountNone), Options{}))
	defer srv.Close()
	for _, path := range []string{"/search?make=abc", "/search?make=9", "/search?make=-1"} {
		if code, _ := get(t, srv, path); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}
}

func TestItemPage(t *testing.T) {
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountNone), Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/item/1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	root := htmlx.Parse(body)
	tbl := htmlx.TableByID(root, "item")
	if tbl == nil {
		t.Fatal("item table missing")
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fields = %d", len(tbl.Rows))
	}
	if code, _ := get(t, srv, "/item/99"); code != http.StatusNotFound {
		t.Errorf("missing item status = %d", code)
	}
	if code, _ := get(t, srv, "/item/x"); code != http.StatusNotFound {
		t.Errorf("bad id status = %d", code)
	}
}

// TestUnknownPathsAreNotCounted: a request outside the interface's
// endpoints, such as /api/search or a browser's /favicon.ico, is a plain
// 404 that webform_requests_total does not count as a form request.
func TestUnknownPathsAreNotCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountExact), Options{Metrics: reg}))
	defer srv.Close()
	for _, path := range []string{"/api/search?make=0", "/favicon.ico", "/search/"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	if code, _ := get(t, srv, "/"); code != http.StatusOK {
		t.Fatalf("GET / = %d", code)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := `webform_requests_total{endpoint="form"} 1`; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, text.String())
	}
}

func TestRateLimiting(t *testing.T) {
	now := time.Unix(1000, 0)
	opts := Options{RatePerSec: 1, Burst: 2, Now: func() time.Time { return now }}
	srv := httptest.NewServer(NewServer(testDB(t, 2, hiddendb.CountNone), opts))
	defer srv.Close()

	// Burst of 2 allowed, third within the same instant is limited.
	for i := 0; i < 2; i++ {
		if code, _ := get(t, srv, "/search"); code != http.StatusOK {
			t.Fatalf("burst query %d status = %d", i, code)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Retry-After-Ms") == "" {
		t.Fatal("retry headers missing")
	}
	ms, err := strconv.Atoi(resp.Header.Get("X-Retry-After-Ms"))
	if err != nil || ms <= 0 || ms > 2000 {
		t.Fatalf("X-Retry-After-Ms = %q", resp.Header.Get("X-Retry-After-Ms"))
	}

	// After a second of simulated time a token is available again.
	now = now.Add(1100 * time.Millisecond)
	if code, _ := get(t, srv, "/search"); code != http.StatusOK {
		t.Fatalf("post-refill status = %d", code)
	}
	// The form page itself is never rate limited.
	if code, _ := get(t, srv, "/"); code != http.StatusOK {
		t.Fatal("form page rate limited")
	}
}

func TestBudgetExhaustionSurfacesAs503(t *testing.T) {
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"))
	db, err := hiddendb.New(s, []hiddendb.Tuple{{Vals: []int{0}}}, nil,
		hiddendb.Config{K: 5, QueryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(db, Options{}))
	defer srv.Close()
	if code, _ := get(t, srv, "/search"); code != http.StatusOK {
		t.Fatalf("first query status = %d", code)
	}
	if code, _ := get(t, srv, "/search"); code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted status = %d, want 503", code)
	}
}

// Integration: the full Vehicles inventory round-trips through the HTML
// layer — every row of a valid result parses back to an in-domain tuple.
func TestVehiclesEndToEndHTML(t *testing.T) {
	ds := datagen.Vehicles(500, 42)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(db, Options{}))
	defer srv.Close()

	q := url.Values{}
	q.Set("make", "0") // toyota
	q.Set("condition", "1")
	code, body := get(t, srv, "/search?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	root := htmlx.Parse(body)
	tbl := htmlx.TableByID(root, "results")
	if tbl == nil {
		t.Skip("query returned no rows for this seed")
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0].Text, "#") {
			t.Fatalf("row id cell = %q", row[0].Text)
		}
		if row[1].Text != "toyota" {
			t.Fatalf("make cell = %q", row[1].Text)
		}
		price, err := strconv.ParseFloat(row[4].Text, 64)
		if err != nil {
			t.Fatalf("price cell %q: %v", row[4].Text, err)
		}
		if ds.Schema.Attrs[datagen.VehAttrPrice].BucketOf(price) < 0 {
			t.Fatalf("price %g outside all buckets", price)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	db := testDB(t, 3, hiddendb.CountExact)
	srv := httptest.NewServer(NewServer(db, Options{}))
	defer srv.Close()
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				resp, err := srv.Client().Get(fmt.Sprintf("%s/search?make=%d", srv.URL, (w+i)%3))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
