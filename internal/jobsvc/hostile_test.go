package jobsvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/hiddendb"
)

// TestHostileSpecs submits the two specs that once took the daemon down:
// a worker count too large to allocate (a panic in the job goroutine) and
// a sample count whose quota split held the replica set's lock for an
// O(n) loop, wedging every GET of the job.
func TestHostileSpecs(t *testing.T) {
	_, target := newTarget(t, 2000, 50, hiddendb.CountNone)
	m := newTestManager(t, target, Config{})
	daemon := httptest.NewServer(NewHandler(m))
	t.Cleanup(daemon.Close)
	api := &apiClient{t: t, base: daemon.URL, c: daemon.Client()}

	spec := map[string]any{"url": target.URL, "n": 10, "workers": int64(1) << 50}
	if code, body := api.do(http.MethodPost, "/jobs", spec); code != http.StatusBadRequest {
		t.Fatalf("POST with %d workers: %d %s, want 400", int64(1)<<50, code, body)
	}

	code, body := api.do(http.MethodPost, "/jobs", map[string]any{"url": target.URL, "n": int64(1) << 55, "workers": 2})
	if code != http.StatusCreated {
		t.Fatalf("POST with n = 2^55: %d %s", code, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	api.wait(v.ID, 10*time.Second, func(v View) bool { return v.State == StateRunning })
	for range 3 {
		start := time.Now()
		api.job(v.ID)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("GET /jobs/%s took %v while the job runs", v.ID, d)
		}
	}
	if code, body := api.do(http.MethodDelete, "/jobs/"+v.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, body)
	}
	api.wait(v.ID, 10*time.Second, func(v View) bool { return v.State == StateCanceled })
}

// FuzzSpec feeds arbitrary request bodies through the POST /jobs decoding
// (JSON into a Spec) and normalize: never a panic, every accepted spec
// within the bounds normalize promises, and normalize idempotent, so a
// journaled spec replays as it was accepted. The nightly fuzz smoke run
// extends the seeds.
func FuzzSpec(f *testing.F) {
	f.Add(`{"url":"http://x.test","n":5}`)
	f.Add(`{"url":"https://x.test:8443/form/","n":200,"workers":4,"slider":0.85,"seed":7}`)
	f.Add(`{"url":"http://x.test","method":"crawl","max_queries":100}`)
	f.Add(`{"url":"http://x.test","n":10,"workers":1125899906842624}`)
	f.Add(`{"url":"http://x.test","n":36028797018963968,"workers":2}`)
	f.Add(`{"url":"http://x.test","n":5,"slider":-0.5,"connector":"api","method":"weighted","trust_counts":true}`)
	f.Add(`{"url":"ftp://x.test","n":5}`)
	f.Add(`{"url":"http://x.test/%zz","n":5}`)
	f.Add(`{"url":"http://[::1]:80/a//","n":1,"workers":-3}`)
	f.Fuzz(func(t *testing.T, body string) {
		var spec Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			return
		}
		u, err := spec.normalize()
		if err != nil {
			return
		}
		switch {
		case spec.Workers < 1 || spec.Workers > MaxWorkers:
			t.Fatalf("accepted workers = %d", spec.Workers)
		case spec.Method != MethodUniform && spec.Method != MethodWeighted && spec.Method != MethodCrawl:
			t.Fatalf("accepted method %q", spec.Method)
		case spec.Method != MethodCrawl && spec.N <= 0:
			t.Fatalf("accepted %s job with n = %d", spec.Method, spec.N)
		case spec.Slider != nil && !(*spec.Slider >= 0 && *spec.Slider <= 1):
			t.Fatalf("accepted slider %g", *spec.Slider)
		case u.Host == "" || (u.Scheme != "http" && u.Scheme != "https"):
			t.Fatalf("accepted url %q", spec.URL)
		case strings.HasSuffix(spec.URL, "/"):
			t.Fatalf("accepted url %q keeps a trailing slash", spec.URL)
		}
		again := spec
		u2, err := again.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) || u2.Host != u.Host {
			t.Fatalf("normalize is not idempotent: %+v (host %q) then %+v (host %q)", spec, u.Host, again, u2.Host)
		}
	})
}
