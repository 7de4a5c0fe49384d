package jobsvc

import (
	"hdsampler/internal/faultform"
	"hdsampler/internal/telemetry"
)

// registerMetrics wires every service metric into the manager's telemetry
// registry: the families the legacy hand-rolled /metrics writer emitted
// (names and help strings preserved so dashboards keep working), the new
// latency histograms, and the tracing/slow-walk counters. Job and host
// values are computed at scrape time from the live job table, matching the
// old writer's semantics.
func (m *Manager) registerMetrics() {
	r := m.reg
	r.CollectGauge("hdsamplerd_jobs", "Jobs by lifecycle state.", func(emit telemetry.Emit) {
		byState := map[State]int{
			StateQueued: 0, StateRunning: 0,
			StateCompleted: 0, StateFailed: 0, StateCanceled: 0,
		}
		for _, v := range m.Jobs() {
			byState[v.State]++
		}
		for s, n := range byState {
			emit(float64(n), telemetry.Label{Name: "state", Value: string(s)})
		}
	})
	r.CounterFunc("hdsamplerd_samples_accepted_total", "Accepted samples across all jobs.", func() float64 {
		var accepted int64
		for _, v := range m.Jobs() {
			accepted += v.Accepted
		}
		return float64(accepted)
	})
	r.CounterFunc("hdsamplerd_queries_total", "Interface queries issued by samplers across all jobs.", func() float64 {
		var queries int64
		for _, v := range m.Jobs() {
			queries += v.Queries
		}
		return float64(queries)
	})
	r.CounterFunc("hdsamplerd_queries_saved_total", "Queries answered by shared history caches instead of the interface.", func() float64 {
		// Savings come from the host caches, not from summing per-job
		// views: concurrent jobs on one cache observe overlapping windows,
		// and the sum would overcount.
		var saved int64
		for _, h := range m.Hosts() {
			saved += h.Saved()
		}
		return float64(saved)
	})

	perHost := func(name, help string, counter bool, value func(HostStats) float64) {
		fn := func(emit telemetry.Emit) {
			for _, h := range m.Hosts() {
				emit(value(h), telemetry.Label{Name: "host", Value: h.Host})
			}
		}
		if counter {
			r.CollectCounter(name, help, fn)
		} else {
			r.CollectGauge(name, help, fn)
		}
	}
	perHost("hdsamplerd_host_cache_issued_total", "Real queries forwarded to each host.", true,
		func(h HostStats) float64 { return float64(h.Issued) })
	perHost("hdsamplerd_host_cache_saved_total", "Queries each host's shared cache answered (exact hits + inference).", true,
		func(h HostStats) float64 { return float64(h.Saved()) })
	perHost("hdsamplerd_host_cache_entries", "Resident entries in each host's shared history caches.", false,
		func(h HostStats) float64 { return float64(h.Entries) })
	perHost("hdsamplerd_host_cache_bytes", "Charged bytes of the resident entries in each host's shared history caches.", false,
		func(h HostStats) float64 { return float64(h.Bytes) })
	perHost("hdsamplerd_host_cache_evictions_total", "Entries reclaimed by each host cache's CLOCK eviction.", true,
		func(h HostStats) float64 { return float64(h.Evictions) })
	perHost("hdsamplerd_host_cache_shard_balance_cv", "Coefficient of variation of per-shard entry counts (0 = perfectly balanced).", false,
		func(h HostStats) float64 { return h.ShardBalance.CV })
	perHost("hdsamplerd_host_throttled_total", "Queries delayed by the per-host politeness budget.", true,
		func(h HostStats) float64 { return float64(h.Throttled) })
	perHost("hdsamplerd_host_exec_coalesced_total", "Queries answered by joining an identical in-flight query.", true,
		func(h HostStats) float64 { return float64(h.Coalesced) })
	perHost("hdsamplerd_host_exec_wire_calls_total", "Wire executions (one per uncoalesced query, plus transient retries).", true,
		func(h HostStats) float64 { return float64(h.WireCalls) })
	perHost("hdsamplerd_host_exec_in_flight", "Wire requests currently running against each host.", false,
		func(h HostStats) float64 { return float64(h.InFlight) })
	perHost("hdsamplerd_host_exec_concurrency_limit", "Current AIMD concurrency window per host (0 = unlimited).", false,
		func(h HostStats) float64 { return h.Limit })
	perHost("hdsamplerd_host_exec_backoffs_total", "Multiplicative window cuts after 429 pushback.", true,
		func(h HostStats) float64 { return float64(h.Backoffs) })
	perHost("hdsamplerd_host_exec_transient_retries_total", "Wire executions repeated after transient interface faults (5xx blips, timeouts).", true,
		func(h HostStats) float64 { return float64(h.TransientRetries) })

	r.CollectCounter("hdsamplerd_host_faults_injected_total",
		"Misbehaviour injected by the configured fault profile, by kind (zero without -fault-profile).",
		func(emit telemetry.Emit) {
			for _, h := range m.Hosts() {
				host := telemetry.Label{Name: "host", Value: h.Host}
				for _, kv := range faultKinds(h.Faults) {
					emit(float64(kv.n), host, telemetry.Label{Name: "kind", Value: kv.kind})
				}
			}
		})

	// Job-journal durability counters. journal_degraded is the loud flag:
	// 1 means configured durability is not protecting jobs right now
	// (disk failure mid-run, or the journal never opened).
	r.CounterFunc("hdsamplerd_journal_appends_total", "Records committed (written + fsynced) to the job journal.", func() float64 {
		return float64(m.JournalStats().Appends)
	})
	r.CounterFunc("hdsamplerd_journal_fsyncs_total", "fsync calls issued by the job journal (segment and directory).", func() float64 {
		return float64(m.JournalStats().Fsyncs)
	})
	r.CounterFunc("hdsamplerd_journal_compactions_total", "Snapshot+truncate compactions of the job journal.", func() float64 {
		return float64(m.JournalStats().Compactions)
	})
	r.GaugeFunc("hdsamplerd_journal_replay_records", "Records replayed from the journal at the last daemon start.", func() float64 {
		return float64(m.JournalStats().ReplayRecords)
	})
	r.GaugeFunc("hdsamplerd_journal_segment_bytes", "Active journal segment size.", func() float64 {
		return float64(m.JournalStats().SegmentBytes)
	})
	r.GaugeFunc("hdsamplerd_journal_degraded", "1 when durability is configured but not working (journal degraded to memory-only or unavailable).", func() float64 {
		h := m.Health()
		if h.Journal == "degraded" || h.Journal == "unavailable" {
			return 1
		}
		return 0
	})

	// Telemetry instruments: latency histograms plus tracing and slow-walk
	// counters (the new observability surface).
	m.wireHist = r.HistogramVec("hdsamplerd_host_wire_rtt_seconds",
		"Wire round-trip latency of real interface requests, per host.", "host")
	m.execHist = r.HistogramVec("hdsamplerd_host_exec_latency_seconds",
		"Execution-layer latency per query (coalesced waits included), per host.", "host")
	m.cacheHist = r.HistogramVec("hdsamplerd_host_cache_lookup_seconds",
		"History-cache lookup latency on traced walks, per host.", "host")
	m.walkHist = r.HistogramVec("hdsamplerd_walk_duration_seconds",
		"Whole candidate-draw duration (all restarts of one draw), per job.", "job")
	m.slowWalks = r.Counter("hdsamplerd_slow_walks_total",
		"Candidate draws exceeding the slow-walk latency or query-budget threshold.")
	r.CounterFunc("hdsamplerd_traces_started_total", "Walks sampled into end-to-end tracing.", func() float64 {
		return float64(m.tracer.Stats().Started)
	})
	r.CounterFunc("hdsamplerd_traces_evicted_total", "Finished traces displaced from the ring buffer.", func() float64 {
		return float64(m.tracer.Stats().Evicted)
	})
	r.GaugeFunc("hdsamplerd_traces_buffered", "Finished traces currently held in the ring buffer.", func() float64 {
		return float64(m.tracer.Stats().Buffered)
	})
}

// faultKinds flattens fault-injection stats into (kind, count) pairs in
// the exposition's historical order.
func faultKinds(f faultform.Stats) []struct {
	kind string
	n    int64
} {
	return []struct {
		kind string
		n    int64
	}{
		{"rate_limited", f.RateLimited},
		{"exhausted_429s", f.Exhausted429s},
		{"transient", f.Transients},
		{"jittered", f.Jittered},
		{"reordered", f.Reordered},
		{"rounded_counts", f.RoundedCounts},
		{"slow_calls", f.SlowCalls},
	}
}
