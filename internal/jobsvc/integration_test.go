package jobsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/store"
)

// apiClient drives the REST API of an in-process daemon.
type apiClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func (a *apiClient) do(method, path string, body any) (int, []byte) {
	a.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			a.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.c.Do(req)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (a *apiClient) submit(spec Spec) View {
	a.t.Helper()
	code, body := a.do(http.MethodPost, "/jobs", spec)
	if code != http.StatusCreated {
		a.t.Fatalf("POST /jobs: %d %s", code, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		a.t.Fatal(err)
	}
	return v
}

func (a *apiClient) job(id string) View {
	a.t.Helper()
	code, body := a.do(http.MethodGet, "/jobs/"+id, nil)
	if code != http.StatusOK {
		a.t.Fatalf("GET /jobs/%s: %d %s", id, code, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		a.t.Fatal(err)
	}
	return v
}

func (a *apiClient) wait(id string, timeout time.Duration, pred func(View) bool) View {
	a.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := a.job(id)
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			a.t.Fatalf("job %s: timed out; last view %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonIntegration is the acceptance scenario: webform.Server and
// the hdsamplerd service boot in-process, two concurrent jobs hit the
// same host, both complete with the requested n, the shared per-host
// history cache reports cross-job hits, DELETE cancels a running job
// promptly, and a completed job's samples round-trip through
// internal/store.
func TestDaemonIntegration(t *testing.T) {
	db, target := newTarget(t, 2500, 300, hiddendb.CountNone)
	dataDir := t.TempDir()
	mgr := NewManager(Config{DataDir: dataDir, Client: target.Client(), MaxConcurrent: 4})
	daemon := httptest.NewServer(NewHandler(mgr))
	t.Cleanup(daemon.Close)
	api := &apiClient{t: t, base: daemon.URL, c: daemon.Client()}

	// Two concurrent jobs against the same host.
	const n = 60
	j1 := api.submit(Spec{URL: target.URL, N: n, Workers: 3, Seed: 11})
	j2 := api.submit(Spec{URL: target.URL, N: n, Workers: 3, Seed: 22})
	v1 := api.wait(j1.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	v2 := api.wait(j2.ID, 60*time.Second, func(v View) bool { return v.State.Terminal() })
	for _, v := range []View{v1, v2} {
		if v.State != StateCompleted {
			t.Fatalf("job %s: state %s (%s)", v.ID, v.State, v.Error)
		}
		if v.Accepted != n {
			t.Fatalf("job %s: accepted %d, want %d", v.ID, v.Accepted, n)
		}
		if v.Queries == 0 {
			t.Fatalf("job %s reports no query bill", v.ID)
		}
	}

	// One shared per-host cache served both jobs and reports hits.
	hosts := mgr.Hosts()
	if len(hosts) != 1 {
		t.Fatalf("host entries = %d, want 1 (both jobs hit one host)", len(hosts))
	}
	if hosts[0].Saved() == 0 {
		t.Fatal("shared history cache saved nothing across the two jobs")
	}
	if v1.QueriesSaved+v2.QueriesSaved == 0 {
		t.Fatal("neither job observed history savings")
	}
	// The later-finishing job drew on answers it never issued itself:
	// the cache forwarded fewer real queries than the two jobs issued.
	if hosts[0].Issued >= v1.Queries+v2.Queries {
		t.Fatalf("cache forwarded %d real queries for %d issued — no sharing",
			hosts[0].Issued, v1.Queries+v2.Queries)
	}

	// Samples round-trip through internal/store: API payload and disk
	// checkpoint both decode to the accepted tuples.
	code, body := api.do(http.MethodGet, "/jobs/"+j1.ID+"/samples", nil)
	if code != http.StatusOK {
		t.Fatalf("GET samples: %d %s", code, body)
	}
	set, err := store.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("samples payload is not a store.SampleSet: %v", err)
	}
	tuples, reaches, err := set.DecodeSamples()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != n || len(reaches) != n {
		t.Fatalf("decoded %d tuples / %d reaches, want %d", len(tuples), len(reaches), n)
	}
	schema, err := set.DecodeSchema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumAttrs() != db.Schema().NumAttrs() {
		t.Fatalf("schema lost attributes: %d vs %d", schema.NumAttrs(), db.Schema().NumAttrs())
	}
	if v := api.job(j1.ID); v.Checkpoint == "" {
		t.Fatal("completed job has no checkpoint")
	} else if onDisk, err := store.LoadFile(v.Checkpoint); err != nil || len(onDisk.Samples) != n {
		t.Fatalf("checkpoint %s: %v (%d samples)", v.Checkpoint, err, len(onDisk.Samples))
	}

	// Cancellation via DELETE stops a running job promptly.
	big := api.submit(Spec{URL: target.URL, N: 1000000, Workers: 2, Seed: 33})
	api.wait(big.ID, 30*time.Second, func(v View) bool { return v.State == StateRunning && v.Accepted > 0 })
	start := time.Now()
	if code, body := api.do(http.MethodDelete, "/jobs/"+big.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, body)
	}
	v := api.wait(big.ID, 5*time.Second, func(v View) bool { return v.State.Terminal() })
	if v.State != StateCanceled {
		t.Fatalf("cancelled job state = %s", v.State)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancellation took %s", took)
	}
	if v.Accepted == 0 || int64(v.Spec.N) == v.Accepted {
		t.Fatalf("cancelled mid-flight but accepted = %d of %d", v.Accepted, v.Spec.N)
	}

	// Metrics reflect the workload.
	code, body = api.do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`hdsamplerd_jobs{state="completed"} 2`,
		`hdsamplerd_jobs{state="canceled"} 1`,
		"hdsamplerd_queries_total",
		fmt.Sprintf("hdsamplerd_host_cache_saved_total{host=%q}", hosts[0].Host),
		fmt.Sprintf("hdsamplerd_host_exec_latency_seconds_count{host=%q}", hosts[0].Host),
		fmt.Sprintf("hdsamplerd_host_exec_in_flight{host=%q}", hosts[0].Host),
		fmt.Sprintf("hdsamplerd_host_throttled_total{host=%q}", hosts[0].Host),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
