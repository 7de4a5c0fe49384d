package webui

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/htmlx"
)

func uiServer(t *testing.T) (*hiddendb.DB, *httptest.Server) {
	t.Helper()
	ds := datagen.Vehicles(2000, 3)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 500, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(formclient.NewLocal(db), db.K()))
	t.Cleanup(srv.Close)
	return db, srv
}

func TestSettingsPage(t *testing.T) {
	_, srv := uiServer(t)
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	root := htmlx.Parse(string(body))
	forms := htmlx.ExtractForms(root)
	if len(forms) != 1 || forms[0].Action != "/start" {
		t.Fatalf("start form missing: %+v", forms)
	}
	// One checkbox per attribute plus controls.
	checkboxes := 0
	for _, in := range forms[0].Inputs {
		if in.Type == "checkbox" && in.Name == "attr" {
			checkboxes++
		}
	}
	if checkboxes != 10 {
		t.Fatalf("attribute checkboxes = %d, want 10", checkboxes)
	}
	if !strings.Contains(string(body), "efficiency") {
		t.Error("slider missing")
	}
}

func startRun(t *testing.T, srv *httptest.Server, form url.Values) {
	t.Helper()
	resp, err := srv.Client().PostForm(srv.URL+"/start", form)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("start status = %d", resp.StatusCode)
	}
}

func getStatus(t *testing.T, srv *httptest.Server) statusResponse {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStartStatusAndCompletion(t *testing.T) {
	_, srv := uiServer(t)
	// Before any run, status is inactive.
	if st := getStatus(t, srv); st.Active {
		t.Fatal("status active before start")
	}
	startRun(t, srv, url.Values{
		"n": {"30"}, "slider": {"10"}, "method": {"walk"},
		"attr": {"0", "5", "6"}, "history": {"on"}, "shuffle": {"on"},
	})
	deadline := time.Now().Add(10 * time.Second)
	var st statusResponse
	for time.Now().Before(deadline) {
		st = getStatus(t, srv)
		if st.Done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !st.Done {
		t.Fatalf("run did not finish: %+v", st)
	}
	if st.Error != "" {
		t.Fatalf("run error: %s", st.Error)
	}
	if st.Accepted != 30 {
		t.Fatalf("accepted = %d, want 30", st.Accepted)
	}
	if len(st.Marginals) != 3 {
		t.Fatalf("marginals = %d, want 3 (scoped attrs)", len(st.Marginals))
	}
	if st.Marginals[0].Name != "make" {
		t.Fatalf("first marginal = %q", st.Marginals[0].Name)
	}
	sum := 0
	for _, c := range st.Marginals[0].Counts {
		sum += c
	}
	if sum != 30 {
		t.Fatalf("histogram total = %d, want 30", sum)
	}
	if len(st.Recent) == 0 || len(st.Recent[0]) != 10 {
		t.Fatalf("recent rows malformed: %d rows", len(st.Recent))
	}
}

// slowSchemaConn answers Schema after a delay, like a form page fetched
// over the network, so concurrent starts overlap while they build their
// samplers.
type slowSchemaConn struct{ formclient.Conn }

func (c slowSchemaConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	time.Sleep(10 * time.Millisecond)
	return c.Conn.Schema(ctx)
}

// TestConcurrentStarts posts /start from several goroutines at once. Each
// start must take its seed and advance the run counter in one critical
// section (the race detector checks the read), and the run that ends up
// active must still complete.
func TestConcurrentStarts(t *testing.T) {
	ds := datagen.Vehicles(2000, 3)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 500})
	if err != nil {
		t.Fatal(err)
	}
	ui := NewServer(slowSchemaConn{formclient.NewLocal(db)}, db.K())
	srv := httptest.NewServer(ui)
	t.Cleanup(srv.Close)

	const starts = 8
	var wg sync.WaitGroup
	for i := 0; i < starts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().PostForm(srv.URL+"/start", url.Values{
				"n": {"20"}, "slider": {"0"}, "method": {"walk"}, "attr": {"0", "1"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("start status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	ui.mu.Lock()
	next := ui.nextSeed
	ui.mu.Unlock()
	if next != 2*starts {
		t.Fatalf("nextSeed = %d after %d starts, want %d", next, starts, 2*starts)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, srv); st.Done {
			if st.Error != "" || st.Accepted != 20 {
				t.Fatalf("last run: accepted %d, error %q", st.Accepted, st.Error)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("last run did not finish")
}

func TestKillSwitch(t *testing.T) {
	_, srv := uiServer(t)
	startRun(t, srv, url.Values{
		"n": {"100000"}, "slider": {"0"}, "method": {"walk"}, "attr": {"0", "1", "2"},
	})
	resp, err := srv.Client().Post(srv.URL+"/stop", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stop status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, srv); st.Done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("run not stopped by kill switch")
}

func TestAggregateEndpoint(t *testing.T) {
	_, srv := uiServer(t)
	// No run yet: error response.
	resp, _ := srv.Client().Get(srv.URL + "/aggregate?op=avg&attr=3&predattr=0&predval=0")
	var agg aggResponse
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	if agg.Error == "" {
		t.Fatal("aggregate before run should error")
	}
	// Slider 0 is the UI's "fastest" end (accept everything): the run must
	// complete quickly.
	startRun(t, srv, url.Values{
		"n": {"60"}, "slider": {"0"}, "method": {"count"},
		"attr": {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"},
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, srv); st.Done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// AVG(price) over all samples.
	resp, err := srv.Client().Get(srv.URL + "/aggregate?op=avg&attr=3&predattr=6&predval=1")
	if err != nil {
		t.Fatal(err)
	}
	agg = aggResponse{}
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	if agg.Error != "" {
		t.Fatalf("aggregate error: %s", agg.Error)
	}
	if agg.N == 0 || agg.Value <= 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
	// Bad parameters.
	resp, _ = srv.Client().Get(srv.URL + "/aggregate?op=avg&attr=99&predattr=0&predval=0")
	agg = aggResponse{}
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	if agg.Error == "" {
		t.Fatal("bad attr accepted")
	}
	resp, _ = srv.Client().Get(srv.URL + "/aggregate?op=median&attr=3&predattr=0&predval=0")
	agg = aggResponse{}
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	if agg.Error == "" {
		t.Fatal("unknown op accepted")
	}
}

func TestStartValidation(t *testing.T) {
	_, srv := uiServer(t)
	for name, form := range map[string]url.Values{
		"badN":      {"n": {"x"}, "slider": {"50"}, "attr": {"0"}},
		"badSlider": {"n": {"10"}, "slider": {"101"}, "attr": {"0"}},
		"noAttrs":   {"n": {"10"}, "slider": {"50"}},
		"badAttr":   {"n": {"10"}, "slider": {"50"}, "attr": {"77"}},
		"badMethod": {"n": {"10"}, "slider": {"50"}, "attr": {"0"}, "method": {"magic"}},
	} {
		resp, err := srv.Client().PostForm(srv.URL+"/start", form)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestUnknownPath(t *testing.T) {
	_, srv := uiServer(t)
	resp, err := srv.Client().Get(srv.URL + "/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
