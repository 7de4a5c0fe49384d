package formclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// TestHTMLScrapeSurvives5xxBlips drives the real HTML-scraping path
// against a webform server that injects 503 bursts into every query
// endpoint: the connector must absorb the blips with bounded retries and
// still assemble correct results.
func TestHTMLScrapeSurvives5xxBlips(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 50, hiddendb.CountNone,
		webform.Options{Fault: &webform.FaultConfig{Seed: 3, Prob5xx: 1, Burst5xx: 2}})
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

// TestHTMLPaginationSurvivesBlips: pagination fetches each page as its
// own request (a distinct blip target); the scraper must retry through
// per-page bursts and still return the complete assembled answer.
func TestHTMLPaginationSurvivesBlips(t *testing.T) {
	db, srv := vehiclesServer(t, 120, 200, hiddendb.CountNone,
		webform.Options{PageSize: 25, Fault: &webform.FaultConfig{Seed: 5, Prob5xx: 1, Burst5xx: 1}})
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatalf("paginated Execute through blips: %v", err)
	}
	if len(res.Tuples) != db.Size() {
		t.Fatalf("assembled %d of %d rows — a blip dropped a page", len(res.Tuples), db.Size())
	}
	if st := conn.Stats(); st.TransientRetries == 0 {
		t.Fatal("no transient retries recorded — the fault injector did not engage")
	}
}

// TestAPISurvives5xxBlips covers the machine-readable connector on the
// same faulted server.
func TestAPISurvives5xxBlips(t *testing.T) {
	db, srv := vehiclesServer(t, 300, 50, hiddendb.CountExact,
		webform.Options{Fault: &webform.FaultConfig{Seed: 11, Prob5xx: 1, Burst5xx: 2}})
	conn := NewAPI(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep})

	res, err := conn.Execute(context.Background(), hiddendb.EmptyQuery())
	if err != nil {
		t.Fatalf("API Execute through 503 burst: %v", err)
	}
	if res.Count != db.Size() {
		t.Fatalf("Count = %d, want %d", res.Count, db.Size())
	}
	if st := conn.Stats(); st.TransientRetries == 0 {
		t.Fatal("no transient retries recorded")
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
	conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client(), Sleep: noSleep, MaxRetries: 3})

	_, err := conn.Schema(context.Background())
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (the retry budget)", got)
	}
	if st := conn.Stats(); st.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", st.TransientRetries)
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
