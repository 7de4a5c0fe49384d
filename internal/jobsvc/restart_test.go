package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/jobq"
	"hdsampler/internal/store"
	"hdsampler/internal/webform"
)

// craftCrashedJournal writes the journal state a SIGKILLed daemon leaves
// behind: a queued job (admitted, never leased), a running job (leased,
// no checkpoint yet), and a mid-run job with a progress checkpoint
// carrying real accepted samples and a spent query bill.
func craftCrashedJournal(t *testing.T, dir string, spec Spec, base *store.SampleSet, baseQueries int64) {
	t.Helper()
	j, _, err := jobq.Open(dir, jobq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(id string) {
		t.Helper()
		if err := j.Admit(id, specJSON, time.Now().UTC()); err != nil {
			t.Fatal(err)
		}
	}
	admit("j-0002") // queued at the crash
	admit("j-0003") // running at the crash, no checkpoint yet
	if _, err := j.Lease("j-0003"); err != nil {
		t.Fatal(err)
	}
	admit("j-0004") // running with journaled progress
	ep, err := j.Lease("j-0004")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	nBase, _, err := base.DecodeSamples()
	if err != nil {
		t.Fatal(err)
	}
	ck := &jobq.Checkpoint{
		Accepted:   int64(len(nBase)),
		Candidates: int64(len(nBase)) + 3,
		Rejected:   3,
		Queries:    baseQueries,
		Bills:      make([]int64, len(nBase)),
		Samples:    buf.Bytes(),
	}
	if err := j.Checkpoint("j-0004", ep, ck); err != nil {
		t.Fatal(err)
	}
}

// TestRestartReplaysJournal is the satellite end-to-end restart test:
// manager A completes a job and shuts down; a crashed-state journal is
// crafted on top; manager B over the same directories must (a) list the
// terminal job with its stats and lazily serve its samples, (b) requeue
// and complete the interrupted jobs with exact sample counts and a
// monotone query bill, and (c) compose journal replay with the history
// cache warm start.
func TestRestartReplaysJournal(t *testing.T) {
	db, srv := newTarget(t, 400, 50, hiddendb.CountNone)
	journalDir := t.TempDir()
	dataDir := t.TempDir()
	histDir := t.TempDir()
	cfg := Config{
		DataDir:         dataDir,
		HistoryDir:      histDir,
		JournalDir:      journalDir,
		CheckpointEvery: 50 * time.Millisecond,
		Client:          srv.Client(),
	}
	spec := Spec{URL: srv.URL, N: 10, Workers: 2, Seed: 11}

	// Phase 1: a normal life — submit, complete, graceful shutdown.
	a := NewManager(cfg)
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j-0001" {
		t.Fatalf("first job id = %s", v.ID)
	}
	done := waitJob(t, a, v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })
	if done.State != StateCompleted || done.Accepted != 10 {
		t.Fatalf("job A did not complete: %+v", done)
	}
	if done.Epoch != 1 {
		t.Fatalf("first run epoch = %d, want 1", done.Epoch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 2: overlay the journal with a crashed daemon's state. The
	// mid-run checkpoint carries 4 real samples drawn from the same DB
	// and a 123-query bill the resumed accounting must not regress.
	ds := datagen.Vehicles(400, 21)
	base, err := store.New(spec.URL, MethodUniform, 1, ds.Schema, ds.Tuples[:4], nil, 123)
	if err != nil {
		t.Fatal(err)
	}
	craftCrashedJournal(t, journalDir, spec, base, 123)

	// Phase 3: manager B replays, requeues, resumes.
	b := newTestManager(t, srv, cfg)
	views := b.Jobs()
	if len(views) != 4 {
		t.Fatalf("restarted table has %d jobs, want 4: %+v", len(views), views)
	}
	old := views[0]
	if old.ID != "j-0001" || old.State != StateCompleted || old.Accepted != 10 {
		t.Fatalf("terminal job not restored: %+v", old)
	}
	set, err := b.SampleSet("j-0001")
	if err != nil {
		t.Fatalf("restored terminal job samples: %v", err)
	}
	if tuples, _, _ := set.DecodeSamples(); len(tuples) != 10 {
		t.Fatalf("restored sample set has %d samples, want 10", len(tuples))
	}

	for id, wantEpoch := range map[string]int64{"j-0002": 1, "j-0003": 2, "j-0004": 2} {
		fin := waitJob(t, b, id, 30*time.Second, func(v View) bool { return v.State.Terminal() })
		if fin.State != StateCompleted {
			t.Fatalf("%s after restart: %+v", id, fin)
		}
		if fin.Accepted != 10 {
			t.Fatalf("%s accepted = %d, want exactly 10 (no lost or duplicate samples)", id, fin.Accepted)
		}
		if fin.Epoch != wantEpoch {
			t.Fatalf("%s epoch = %d, want %d", id, fin.Epoch, wantEpoch)
		}
		set, err := b.SampleSet(id)
		if err != nil {
			t.Fatal(err)
		}
		tuples, _, err := set.DecodeSamples()
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != 10 {
			t.Fatalf("%s sample set has %d samples, want 10", id, len(tuples))
		}
		for _, tu := range tuples {
			if tu.ID < 0 || tu.ID >= db.Size() {
				t.Fatalf("%s sample outside DB domain: %d", id, tu.ID)
			}
		}
		if id == "j-0004" {
			if fin.Queries < 123 {
				t.Fatalf("j-0004 queries = %d; the 123-query bill from before the crash regressed", fin.Queries)
			}
			if set.Queries < 123 {
				t.Fatalf("j-0004 set bill = %d, want >= 123", set.Queries)
			}
		}
	}

	// The warm-started cache and the resumed jobs compose: the host's
	// shared cache saved real queries during the resumed runs.
	hosts := b.Hosts()
	if len(hosts) != 1 {
		t.Fatalf("hosts = %d, want 1", len(hosts))
	}
	if hosts[0].Saved() == 0 {
		t.Fatal("warm-started history cache saved nothing across the restart")
	}

	st := b.JournalStats()
	if st.Appends == 0 || st.Fsyncs == 0 {
		t.Fatalf("journal counters flat after resumed runs: %+v", st)
	}
	if st.Degraded {
		t.Fatal("journal degraded during a clean restart test")
	}
}

// TestReplayedConnectorSpecRunsOverHTML: a journal whose admitted spec
// still names a connector ("connector":"api", from the days the site
// also had a JSON API) replays, and the job runs to completion over the
// HTML form: the site sees /search requests and none under /api/.
func TestReplayedConnectorSpecRunsOverHTML(t *testing.T) {
	ds := datagen.Vehicles(400, 21)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	site := webform.NewServer(db, webform.Options{})
	var searches, apiCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/search":
			searches.Add(1)
		case strings.HasPrefix(r.URL.Path, "/api/"):
			apiCalls.Add(1)
		}
		site.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	journalDir := t.TempDir()
	j, _, err := jobq.Open(journalDir, jobq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"url":"` + srv.URL + `","connector":"api","n":10,"workers":2,"seed":11}`
	if err := j.Admit("j-0001", []byte(spec), time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, srv, Config{JournalDir: journalDir})
	fin := waitJob(t, m, "j-0001", 30*time.Second, func(v View) bool { return v.State.Terminal() })
	if fin.State != StateCompleted || fin.Accepted != 10 {
		t.Fatalf("replayed job: %+v", fin)
	}
	if searches.Load() == 0 || apiCalls.Load() != 0 {
		t.Fatalf("site saw %d /search and %d /api/ requests, want some and none", searches.Load(), apiCalls.Load())
	}
}

// TestManagerJournalUnavailable pins the degrade-at-birth path: a
// journal directory that cannot be created leaves the manager fully
// operational, memory-only, with the condition loud on Health.
func TestManagerJournalUnavailable(t *testing.T) {
	_, srv := newTarget(t, 200, 50, hiddendb.CountNone)
	blocker := t.TempDir() + "/file"
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, srv, Config{JournalDir: blocker + "/journal"})
	h := m.Health()
	if h.Status != "degraded" || h.Journal != "unavailable" {
		t.Fatalf("health = %+v, want degraded/unavailable", h)
	}
	v, err := m.Submit(Spec{URL: srv.URL, N: 5, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })
	if fin.State != StateCompleted || fin.Accepted != 5 {
		t.Fatalf("memory-only job failed: %+v", fin)
	}
}

// TestHealthEndpoints pins the /healthz and /readyz wire format.
func TestHealthEndpoints(t *testing.T) {
	_, srv := newTarget(t, 200, 50, hiddendb.CountNone)
	m := NewManager(Config{JournalDir: t.TempDir(), Client: srv.Client()})
	daemon := httptest.NewServer(NewHandler(m))
	defer daemon.Close()

	get := func(path string) (int, Health) {
		t.Helper()
		resp, err := daemon.Client().Get(daemon.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, h
	}

	code, h := get("/healthz")
	if code != http.StatusOK || h.Status != "ok" || h.Journal != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if h.JournalStats == nil {
		t.Fatal("healthz missing journal stats")
	}
	if code, h = get("/readyz"); code != http.StatusOK || h.Draining {
		t.Fatalf("readyz = %d %+v", code, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, h = get("/readyz"); code != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining readyz = %d %+v, want 503", code, h)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200 (still alive)", code)
	}
}
