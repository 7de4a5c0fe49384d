package formclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
	"hdsampler/internal/webform"
)

// blipServer serves vehiclesDB through a webform server that answers 503
// to the first burst requests of each distinct search URL, then recovers:
// a site blipping under load. The form page never blips.
func blipServer(t *testing.T, n, k int, mode hiddendb.CountMode, opts webform.Options, burst int) (*hiddendb.DB, *httptest.Server) {
	t.Helper()
	db := vehiclesDB(t, n, k, mode)
	inner := webform.NewServer(db, opts)
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			mu.Lock()
			key := r.URL.RawQuery
			seen[key]++
			blip := seen[key] <= burst
			mu.Unlock()
			if blip {
				http.Error(w, "injected 503 blip", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return db, srv
}

// TestHTMLScrapeSurvives5xxBlips drives the real HTML-scraping path
// against a server that answers 503 bursts on every query endpoint: the
// connector must absorb the blips with bounded retries and still assemble
// correct results.
func TestHTMLScrapeSurvives5xxBlips(t *testing.T) {
	db, srv := blipServer(t, 300, 50, hiddendb.CountNone, webform.Options{}, 2)
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})
	// The root overflows; wanting its rows keeps the full comparison.
	ctx := WantRows(context.Background())

	q := hiddendb.EmptyQuery()
	res, err := conn.Execute(ctx, q)
	if err != nil {
		t.Fatalf("Execute through 503 burst: %v", err)
	}
	want, _ := db.Execute(q)
	if len(res.Tuples) != len(want.Tuples) || res.Overflow != want.Overflow {
		t.Fatalf("got %d tuples (overflow %v), want %d (%v)",
			len(res.Tuples), res.Overflow, len(want.Tuples), want.Overflow)
	}
	st := conn.Stats()
	if st.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", st.TransientRetries)
	}
	if st.RateLimitRetries != 0 {
		t.Fatalf("RateLimitRetries = %d; 5xx blips must not count as congestion", st.RateLimitRetries)
	}
}

// TestTracedQueryCountsRetries: the connector's loop is the stack's only
// retry, so a traced walk's level records the retries it spent there.
func TestTracedQueryCountsRetries(t *testing.T) {
	_, srv := blipServer(t, 300, 50, hiddendb.CountNone, webform.Options{}, 2)
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: 1, Capacity: 4})
	w := tracer.Start("walk", "job", "")
	w.BeginLevel(0, 0, 0, 1)
	if _, err := conn.Execute(telemetry.WithTrace(context.Background(), w), hiddendb.EmptyQuery()); err != nil {
		t.Fatal(err)
	}
	w.EndLevel(telemetry.LevelValid, 0)
	w.Finish()
	views := tracer.Dump()
	if len(views) != 1 || len(views[0].Levels) != 1 {
		t.Fatalf("dump = %+v, want one trace of one level", views)
	}
	if got := views[0].Levels[0].Retries; got != 2 {
		t.Fatalf("level retries = %d, want 2", got)
	}
}

// TestHTMLPaginationSurvivesBlips: pagination fetches each page as its
// own request (a distinct blip target); the scraper must retry through
// per-page bursts and still return the complete assembled answer.
func TestHTMLPaginationSurvivesBlips(t *testing.T) {
	db, srv := blipServer(t, 120, 200, hiddendb.CountNone, webform.Options{PageSize: 25}, 1)
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatalf("paginated Execute through blips: %v", err)
	}
	if len(res.Tuples) != db.Size() {
		t.Fatalf("assembled %d of %d rows — a blip dropped a page", len(res.Tuples), db.Size())
	}
	if st := conn.Stats(); st.TransientRetries == 0 {
		t.Fatal("no transient retries recorded — the blips did not engage")
	}
}

// TestPersistent5xxSurfacesErrTransient: past the retry budget the
// failure surfaces typed, so upper layers can tell flakiness from a
// broken query.
func TestPersistent5xxSurfacesErrTransient(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer srv.Close()
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	_, err := conn.Schema(context.Background())
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if got := hits.Load(); got != MaxAttempts {
		t.Fatalf("server saw %d requests, want %d (the retry budget)", got, MaxAttempts)
	}
	if st := conn.Stats(); st.TransientRetries != MaxAttempts-1 {
		t.Fatalf("TransientRetries = %d, want %d", st.TransientRetries, MaxAttempts-1)
	}
}

// TestNonTransientStatusFailsFast: a 404 is not a blip and must not burn
// the retry budget.
func TestNonTransientStatusFailsFast(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	_, err := conn.Schema(context.Background())
	if err == nil || errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want a non-transient failure", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestTimeoutRetriedAsTransient: a request that times out is retried; a
// site that recovers answers the retry.
func TestTimeoutRetriedAsTransient(t *testing.T) {
	var hits atomic.Int64
	db, backend := vehiclesServer(t, 100, 50, hiddendb.CountNone, webform.Options{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 2 {
			// Only the first /search request stalls (request 1 is schema
			// discovery); later ones answer promptly.
			time.Sleep(300 * time.Millisecond)
		}
		resp, err := http.Get(backend.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer srv.Close()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	conn := NewHTTP(srv.URL, HTTPOptions{Client: client, Sleep: noSleep})
	res, err := conn.Execute(WantRows(context.Background()), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatalf("Execute through timeout: %v", err)
	}
	want, _ := db.Execute(hiddendb.EmptyQuery())
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("got %d tuples, want %d", len(res.Tuples), len(want.Tuples))
	}
	if st := conn.Stats(); st.TransientRetries == 0 {
		t.Fatal("timeout was not retried as transient")
	}
}

// TestCancellationNotRetried: a cancelled context must fail immediately,
// not be mistaken for a timeout blip.
func TestCancellationNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-r.Context().Done()
	}))
	defer srv.Close()
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := conn.Schema(ctx)
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests after cancellation, want 1", got)
	}
	if st := conn.Stats(); st.TransientRetries != 0 {
		t.Fatalf("cancellation retried %d times", st.TransientRetries)
	}
}
