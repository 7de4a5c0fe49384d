package main

import (
	"sync"
	"time"

	"hdsampler"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
)

// drawOutcome packages an in-process job that asked for n samples:
// latency since t0, the sampler's bill, and the output check.
func drawOutcome(t0 time.Time, tuples []hiddendb.Tuple, st hdsampler.Stats, err error, ix *rowIndex, n int, wire int64) jobOutcome {
	out := jobOutcome{latency: time.Since(t0), samples: len(tuples), queries: st.Queries,
		candidates: st.Candidates, wire: wire}
	if err == nil {
		err = ix.checkSamples(tuples, n)
	}
	out.err = err
	return out
}

// stackTrace accumulates an in-process traced phase: the spans, plus the
// counters of the layers each job builds afresh.
type stackTrace struct {
	rec *recorder

	mu                        sync.Mutex
	roots, accepted           int64
	hits, inferred, evictions int64
	queries                   []hiddendb.Query
}

func newStackTrace() *stackTrace { return &stackTrace{rec: newRecorder()} }

// add folds one finished job's layers into the totals.
func (t *stackTrace) add(top, bottom *spanConn, st hdsampler.Stats, cache *history.Cache) {
	cs := cache.CacheStats()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots += top.roots.Load()
	t.accepted += st.Accepted
	t.hits += cs.ExactHits
	t.inferred += cs.Inferred
	t.evictions += cs.Evictions
	t.queries = append(t.queries, bottom.recorded()...)
}

// coreAndHistory fills the core and history metrics of a traced phase and
// returns the core's self time: time in Draw outside the cache.
func (t *stackTrace) coreAndHistory(v map[string]float64, times layerTimes, tp phase) time.Duration {
	samples := float64(tp.samples())
	cands, queries := tp.totals()
	coreSelf := times.Total[layerDraw] - times.Total[layerCache]
	lookups := float64(times.Calls[layerCache])
	v["core.queries_per_candidate"] = ratio(float64(queries), cands)
	v["core.walks_per_candidate"] = ratio(float64(t.roots), cands)
	v["core.accept_ratio"] = ratio(float64(t.accepted), cands)
	v["core.self_us_per_sample"] = ratio(us(coreSelf), samples)
	v["history.lookups_per_sample"] = ratio(lookups, samples)
	v["history.hit_ratio"] = ratio(float64(t.hits), lookups)
	v["history.infer_ratio"] = ratio(float64(t.inferred), lookups)
	v["history.self_us_per_lookup"] = ratio(us(times.Self[layerCache]), lookups)
	v["history.evictions_per_ksample"] = ratio(float64(t.evictions)*1000, samples)
	return coreSelf
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setReplay fills the hiddendb metrics from a trace replay.
func setReplay(v map[string]float64, rs replayStats) {
	v["hiddendb.execute_us_mean"] = rs.ExecuteMeanUS
	v["hiddendb.execute_us_p99"] = rs.ExecuteP99US
	v["hiddendb.rows_per_answer"] = rs.RowsPerAnswer
	v["hiddendb.overflow_ratio"] = rs.OverflowRatio
}
