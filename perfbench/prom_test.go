package main

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdsampler/internal/telemetry"
)

const sampleExposition = `# HELP webform_requests_total Interface requests served, by endpoint.
# TYPE webform_requests_total counter
webform_requests_total{endpoint="search"} 1200
webform_requests_total{endpoint="api_search"} 30
webform_requests_total{endpoint="form"} 3
# HELP webform_request_seconds Interface request handling latency (all endpoints).
# TYPE webform_request_seconds histogram
webform_request_seconds_bucket{le="0.001"} 10
webform_request_seconds_bucket{le="+Inf"} 1233
webform_request_seconds_sum 2.5
webform_request_seconds_count 1233
hdsamplerd_host_cache_issued_total{host="127.0.0.1:4000"} 7
hdsamplerd_host_cache_issued_total{host="127.0.0.1:5000"} 5
odd_label{path="a \"quoted\" \\ value",x="1"} 4 1700000000000
nan_gauge NaN
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("webform_requests_total", "endpoint", "search"); got != 1200 {
		t.Errorf("search requests = %g", got)
	}
	if got := p.sum("webform_requests_total"); got != 1233 {
		t.Errorf("all requests = %g", got)
	}
	if got := p.sum("hdsamplerd_host_cache_issued_total"); got != 12 {
		t.Errorf("issued across hosts = %g", got)
	}
	h := p.histogram("webform_request_seconds")
	if h.Count != 1233 || h.Sum != 2.5 {
		t.Errorf("histogram = %+v", h)
	}
	if got := p.sum("webform_request_seconds_bucket", "le", "+Inf"); got != 1233 {
		t.Errorf("+Inf bucket = %g", got)
	}
	if got := p.sum("odd_label", "path", `a "quoted" \ value`); got != 4 {
		t.Errorf("escaped label value not matched: %g", got)
	}
	for _, s := range p {
		if s.Name == "nan_gauge" && !math.IsNaN(s.Value) {
			t.Errorf("NaN gauge = %g", s.Value)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"name_only\n", `x{a="1" 3` + "\n", "x 1 2 3\n", "x abc\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted garbage", bad)
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	a := hist{Count: 10, Sum: 0.01}
	b := hist{Count: 30, Sum: 0.05}
	d := b.sub(a)
	if d.Count != 20 || math.Abs(d.meanUS()-2000) > 1e-6 {
		t.Errorf("delta %+v mean %g µs, want 20 obs of 2000 µs", d, d.meanUS())
	}
	if (hist{}).meanUS() != 0 {
		t.Error("empty histogram mean should be 0")
	}
}

// The parser must read what the repository's own registry writes.
func TestParsePromReadsRegistryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterVec("reqs_total", "Requests.", "endpoint").With("search").Add(41)
	h := reg.Histogram("lat_seconds", "Latency.")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	p, err := parseProm(rec.Body)
	if err != nil {
		t.Fatalf("%v\n%s", err, rec.Body.String())
	}
	if got := p.sum("reqs_total", "endpoint", "search"); got != 41 {
		t.Errorf("counter = %g", got)
	}
	lat := p.histogram("lat_seconds")
	if lat.Count != 2 || math.Abs(lat.meanUS()-3000) > 1 {
		t.Errorf("histogram %+v, mean %g µs", lat, lat.meanUS())
	}
}
