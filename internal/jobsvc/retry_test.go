package jobsvc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// TestJobsRetryBlipsOnSharedTarget runs jobs in two history modes, so two
// stacks, over one target whose search endpoint answers 503 to the first
// request of each distinct query. The connector retries each blip, so
// both jobs deliver every sample, and the host's retry count — in
// HostStats and on /metrics — equals the 503s the site served: counted
// once per target, although both stacks draw through its conn.
func TestJobsRetryBlipsOnSharedTarget(t *testing.T) {
	ds := datagen.Vehicles(200, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	site := webform.NewServer(db, webform.Options{})
	var mu sync.Mutex
	seen := map[string]bool{}
	var blips atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			mu.Lock()
			first := !seen[r.URL.RawQuery]
			seen[r.URL.RawQuery] = true
			mu.Unlock()
			if first {
				blips.Add(1)
				http.Error(w, "blip", http.StatusServiceUnavailable)
				return
			}
		}
		site.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	m := newTestManager(t, srv, Config{})
	var ids []string
	for i, noHistory := range []bool{false, true} {
		v, err := m.Submit(Spec{URL: srv.URL, N: 8, Seed: int64(i + 1), NoHistory: noHistory})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		v := waitJob(t, m, id, 60*time.Second, func(v View) bool { return v.State.Terminal() })
		if v.State != StateCompleted || v.Accepted != 8 {
			t.Fatalf("job %s: state %s, %d of 8 samples (err=%q)", id, v.State, v.Accepted, v.Error)
		}
	}

	served := blips.Load()
	if served == 0 {
		t.Fatal("the site never blipped")
	}
	hosts := m.Hosts()
	if len(hosts) != 1 {
		t.Fatalf("hosts = %d, want 1", len(hosts))
	}
	if got := hosts[0].TransientRetries; got != served {
		t.Fatalf("HostStats.TransientRetries = %d, want the %d 503s served", got, served)
	}
	rr := httptest.NewRecorder()
	NewHandler(m).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rr.Result().Body)
	want := fmt.Sprintf("hdsamplerd_host_exec_transient_retries_total{host=%q} %d\n", hosts[0].Host, served)
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, grepLines(string(body), "transient_retries"))
	}
}
