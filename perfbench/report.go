package main

import (
	"fmt"
	"math"
	"time"
)

// perLayer lists every per-layer metric of a traced run with its unit, in
// the order of BENCHMARK.json. A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.queries_per_candidate", "1"},
	{"core.walks_per_candidate", "1"},
	{"core.accept_ratio", "1"},
	{"core.self_us_per_sample", "us"},
	{"history.lookups_per_sample", "1"},
	{"history.hit_ratio", "1"},
	{"history.infer_ratio", "1"},
	{"history.self_us_per_lookup", "us"},
	{"history.evictions_per_ksample", "1/ksample"},
	{"queryexec.coalesced_ratio", "1"},
	{"queryexec.self_us_per_query", "us"},
	{"formclient.self_us_per_call", "us"},
	{"formclient.resp_kb_per_call", "KB"},
	{"webform.self_us_per_request", "us"},
	{"hiddendb.execute_us_mean", "us"},
	{"hiddendb.execute_us_p99", "us"},
	{"hiddendb.rows_per_answer", "1"},
	{"hiddendb.overflow_ratio", "1"},
	{"jobsvc.submit_ms_p50", "ms"},
	{"jobsvc.queue_ms_p50", "ms"},
	{"jobsvc.run_ms_p50", "ms"},
	{"jobsvc.fetch_ms_p50", "ms"},
	{"jobq.fsyncs_per_job", "1"},
	{"bench.cpu_ms_per_sample", "ms"},
	{"bench.alloc_kb_per_sample", "KB"},
	{"bench.gc_per_ksample", "1/ksample"},
	{"hdsamplerd.cpu_ms_per_sample", "ms"},
	{"hdsamplerd.alloc_kb_per_sample", "KB"},
	{"hdsamplerd.gc_per_ksample", "1/ksample"},
	{"hiddendbd.cpu_ms_per_sample", "ms"},
	{"hiddendbd.alloc_kb_per_sample", "KB"},
	{"hiddendbd.gc_per_ksample", "1/ksample"},
	{"host.steal_ratio", "1"},
	{"trace.overhead_ratio", "1"},
	{"trace.unexplained_ratio", "1"},
}

// report is one run's outcome before it is printed.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string // failed checks; any makes the run incorrect
	info      map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]any{}}
}

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// countPhase adds a timed phase's jobs to attempted/failed and records
// each failure's reason.
func (r *report) countPhase(p phase) {
	r.attempted += len(p.jobs)
	for _, j := range p.jobs {
		if j.err != nil {
			r.failed++
			r.fail("job %d: %v", j.idx, j.err)
		}
	}
}

// finite makes every metric printable as JSON, which has no infinities:
// a latency tail that failed jobs pushed to +Inf prints as the largest
// float (its run already counts those jobs as failed), and any other
// non-finite figure prints as 0 and fails the run.
func (r *report) finite() {
	for name, m := range r.metrics {
		switch {
		case math.IsInf(m.Value, 1):
			m.Value = math.MaxFloat64
		case math.IsInf(m.Value, -1) || math.IsNaN(m.Value):
			r.fail("metric %s is %g", name, m.Value)
			m.Value = 0
		default:
			continue
		}
		r.metrics[name] = m
	}
}

// setLayers fills the per-layer metrics, 0 for any the workload lacks.
func (r *report) setLayers(v map[string]float64) {
	for _, m := range perLayer {
		r.metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
}

// processFigures converts one process's phase totals into its per-sample
// CPU, allocation and GC metrics.
func processFigures(v map[string]float64, proc string, cpu time.Duration, allocBytes uint64, numGC uint32, samples float64) {
	v[proc+".cpu_ms_per_sample"] = ratio(float64(cpu.Nanoseconds())/1e6, samples)
	v[proc+".alloc_kb_per_sample"] = ratio(float64(allocBytes)/1024, samples)
	v[proc+".gc_per_ksample"] = ratio(float64(numGC)*1000, samples)
}

// overheadRatio is traced over untraced wall time per sample.
func overheadRatio(traced, untraced phase) float64 {
	t := ratio(traced.wall.Seconds(), float64(traced.samples()))
	u := ratio(untraced.wall.Seconds(), float64(untraced.samples()))
	return ratio(t, u)
}

// sumLatency is the phase's total caller time: the sum of job latencies.
func (p phase) sumLatency() time.Duration {
	var t time.Duration
	for _, j := range p.jobs {
		t += j.latency
	}
	return t
}
