package jobsvc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/hiddendb"
)

// TestMetricsEndpointExposition runs a real job against an in-process
// webform target, scrapes the full /metrics endpoint, and validates every
// line against the Prometheus text exposition format — not just a few
// substrings. It pins the content type, comment structure, family
// ordering, and the presence of both the legacy families and the new
// telemetry histograms.
func TestMetricsEndpointExposition(t *testing.T) {
	_, srv := newTarget(t, 400, 25, hiddendb.CountExact)
	m := newTestManager(t, srv, Config{
		MaxConcurrent:   2,
		TraceSampleRate: 1,
		TraceCapacity:   32,
	})
	h := httptest.NewServer(NewHandler(m))
	t.Cleanup(h.Close)
	api := &apiClient{t: t, base: h.URL, c: h.Client()}

	v := api.submit(Spec{URL: srv.URL, Connector: ConnectorAPI, N: 15, Workers: 2, Seed: 11})
	api.wait(v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })
	if got := api.job(v.ID); got.State != StateCompleted {
		t.Fatalf("job finished %v (%s), want completed", got.State, got.Error)
	}

	resp, err := h.Client().Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	families := validateExposition(t, text)

	for _, want := range []string{
		"hdsamplerd_jobs",
		"hdsamplerd_samples_accepted_total",
		"hdsamplerd_queries_total",
		"hdsamplerd_queries_saved_total",
		"hdsamplerd_host_cache_issued_total",
		"hdsamplerd_host_cache_saved_total",
		"hdsamplerd_host_exec_coalesced_total",
		"hdsamplerd_host_exec_wire_calls_total",
		"hdsamplerd_host_exec_in_flight",
		"hdsamplerd_host_exec_concurrency_limit",
		"hdsamplerd_host_faults_injected_total",
		"hdsamplerd_host_wire_rtt_seconds",
		"hdsamplerd_host_exec_latency_seconds",
		"hdsamplerd_walk_duration_seconds",
		"hdsamplerd_slow_walks_total",
		"hdsamplerd_traces_started_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("exposition missing family %s", want)
		}
	}
	for _, wantLine := range []string{
		`hdsamplerd_jobs{state="completed"} 1`,
		`hdsamplerd_jobs{state="failed"} 0`,
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("exposition missing line %q", wantLine)
		}
	}
	// The walk-duration histogram must have recorded the job's draws.
	if !regexp.MustCompile(`hdsamplerd_walk_duration_seconds_count\{job="j-0001"\} [1-9]`).MatchString(text) {
		t.Errorf("walk duration histogram empty:\n%s", grepLines(text, "walk_duration"))
	}
	if !regexp.MustCompile(`hdsamplerd_host_wire_rtt_seconds_count\{host="[^"]+"\} [1-9]`).MatchString(text) {
		t.Errorf("wire RTT histogram empty:\n%s", grepLines(text, "wire_rtt"))
	}
}

// TestHostCacheBytesGauge runs a few jobs on a manager whose host cache is
// capped by bytes: the cache-bytes gauge reads the cache's charged bytes,
// at or below the budget the jobs pushed it against.
func TestHostCacheBytesGauge(t *testing.T) {
	const budget = 64 << 10
	_, srv := newTarget(t, 2000, 50, hiddendb.CountNone)
	m := newTestManager(t, srv, Config{MaxConcurrent: 1, CacheMaxBytes: budget})
	h := httptest.NewServer(NewHandler(m))
	t.Cleanup(h.Close)
	api := &apiClient{t: t, base: h.URL, c: h.Client()}
	for seed := int64(1); seed <= 3; seed++ {
		v := api.submit(Spec{URL: srv.URL, N: 20, Workers: 1, Seed: seed})
		api.wait(v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })
		if got := api.job(v.ID); got.State != StateCompleted {
			t.Fatalf("job %s finished %v (%s), want completed", v.ID, got.State, got.Error)
		}
	}

	code, body := api.do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	mm := regexp.MustCompile(`(?m)^hdsamplerd_host_cache_bytes\{host="[^"]+"\} (\S+)$`).FindStringSubmatch(string(body))
	if mm == nil {
		t.Fatalf("no cache-bytes gauge:\n%s", grepLines(string(body), "host_cache"))
	}
	gauge, err := strconv.ParseFloat(mm[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	hosts := m.Hosts()
	if len(hosts) != 1 || hosts[0].Evictions == 0 {
		t.Fatalf("hosts %+v: want one host whose cache hit its budget", hosts)
	}
	if gauge <= 0 || gauge > budget || int64(gauge) != hosts[0].Bytes {
		t.Fatalf("cache-bytes gauge %v, host bytes %d, budget %d", gauge, hosts[0].Bytes, budget)
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\\\|\\"|\\n)*)"$`)
)

// validateExposition checks every line of a text-format scrape and returns
// the family name → type map.
func validateExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	families := map[string]string{}
	var familyOrder []string
	current := "" // family the samples that follow must belong to
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			mm := helpRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			mm := typeRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if _, dup := families[mm[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, mm[1])
			}
			families[mm[1]] = mm[2]
			familyOrder = append(familyOrder, mm[1])
			current = mm[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment: %q", i+1, line)
		default:
			mm := sampleRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			name := mm[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if name != current && base != current {
				t.Fatalf("line %d: sample %s outside its TYPE'd family (current %s)", i+1, name, current)
			}
			if families[current] == "histogram" != (name != current) {
				t.Fatalf("line %d: name %s does not match family %s type %s", i+1, name, current, families[current])
			}
			if mm[2] != "" {
				for _, pair := range strings.Split(strings.Trim(mm[2], "{}"), ",") {
					if !labelRe.MatchString(pair) {
						t.Fatalf("line %d: malformed label %q in %q", i+1, pair, line)
					}
				}
			}
			if mm[3] != "+Inf" {
				if _, err := strconv.ParseFloat(mm[3], 64); err != nil {
					t.Fatalf("line %d: bad value %q: %v", i+1, mm[3], err)
				}
			}
		}
	}
	if !sort.StringsAreSorted(familyOrder) {
		t.Errorf("families not sorted: %v", familyOrder)
	}
	return families
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestDebugWalksEndpoint verifies the trace ring is exposed over HTTP with
// full per-level spans once a traced job has run.
func TestDebugWalksEndpoint(t *testing.T) {
	_, srv := newTarget(t, 300, 25, hiddendb.CountExact)
	m := newTestManager(t, srv, Config{
		MaxConcurrent:   1,
		TraceSampleRate: 1,
		TraceCapacity:   16,
	})
	h := httptest.NewServer(NewHandler(m))
	t.Cleanup(h.Close)
	api := &apiClient{t: t, base: h.URL, c: h.Client()}

	v := api.submit(Spec{URL: srv.URL, Connector: ConnectorAPI, N: 10, Workers: 1, Seed: 3})
	api.wait(v.ID, 30*time.Second, func(v View) bool { return v.State.Terminal() })

	code, body := api.do(http.MethodGet, "/debug/walks", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/walks: %d %s", code, body)
	}
	var dump WalkDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if dump.Started == 0 || dump.Finished == 0 || len(dump.Walks) == 0 {
		t.Fatalf("no traces captured: %+v", dump)
	}
	// The tail of the ring may hold prefetched walks the replica set
	// cancelled after reaching its target; find a decided one.
	found := false
	for _, tr := range dump.Walks {
		if !tr.Decided {
			continue
		}
		found = true
		if tr.Job != v.ID {
			t.Errorf("trace job %q, want %q", tr.Job, v.ID)
		}
		if tr.Host == "" || !tr.Produced || len(tr.Levels) == 0 {
			t.Errorf("trace incomplete: %+v", tr)
		}
		break
	}
	if !found {
		t.Fatalf("no decided trace among %d walks", len(dump.Walks))
	}
}
