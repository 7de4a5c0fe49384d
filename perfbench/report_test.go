package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The metrics a run prints must be exactly the ones BENCHMARK.json names,
// with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd{}.metrics()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, a run prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: run prints %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, a traced run prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], run %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestFiniteMakesMetricsPrintable(t *testing.T) {
	r := newReport()
	r.metrics["job_p90_ms"] = metric{Value: math.Inf(1), Unit: "ms"}
	r.metrics["job_p50_ms"] = metric{Value: 12.5, Unit: "ms"}
	r.finite()
	if _, err := json.Marshal(r.metrics); err != nil {
		t.Fatalf("metrics with a +Inf tail do not encode: %v", err)
	}
	if r.metrics["job_p90_ms"].Value != math.MaxFloat64 || r.metrics["job_p50_ms"].Value != 12.5 {
		t.Errorf("metrics = %+v", r.metrics)
	}
	if len(r.problems) != 0 {
		t.Errorf("+Inf tail reported as a problem: %v", r.problems)
	}
	r.metrics["hiddendb.execute_us_mean"] = metric{Value: math.NaN(), Unit: "us"}
	r.finite()
	if r.metrics["hiddendb.execute_us_mean"].Value != 0 || len(r.problems) != 1 {
		t.Errorf("NaN metric: %+v, problems %v", r.metrics["hiddendb.execute_us_mean"], r.problems)
	}
}
