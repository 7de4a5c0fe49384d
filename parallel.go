package hdsampler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
	"hdsampler/internal/queryexec"
)

// ReplicaSet is the replica machinery behind DrawParallel, exposed as a
// reusable object for long-running callers (the jobsvc daemon) that need
// live progress and partial results while a draw is underway: `workers`
// independent sampler replicas over the same connector, each with a
// derived seed, drawing concurrently through per-replica pipelines.
//
// When cfg.UseHistory is set the replicas share one history cache, so any
// worker's answers save every other worker's queries. If the connector
// passed in is itself a *history.Cache the set adopts it instead of
// wrapping a new one — that is how a service shares one cache per target
// host across many concurrent ReplicaSets. The cache is sharded
// internally, so replicas read it without serializing on a global lock.
//
// Each replica owns its generator and its acceptance/rejection processor
// (seeded per replica), so no replica shares mutable sampler state with
// another; the acceptors themselves are also concurrency-safe, so even a
// deliberately shared Acceptor would stay race-free.
//
// The combined sample is a fair mixture of independent samplers and keeps
// the per-replica statistical guarantees.
type ReplicaSet struct {
	samplers []*Sampler
	cache    *history.Cache
	exec     *queryexec.Executor
	savedAt0 int64

	mu        sync.Mutex
	started   bool
	startTime time.Time
	elapsed   time.Duration
	pipelines []*Pipeline
	samples   []Sample
}

// NewReplicaSet builds `workers` sampler replicas over conn. Replica i
// samples with seed cfg.Seed + i·7919, so runs with equal configurations
// are reproducible.
func NewReplicaSet(ctx context.Context, conn Conn, cfg Config, workers int) (*ReplicaSet, error) {
	if workers < 1 {
		return nil, fmt.Errorf("hdsampler: workers = %d, need >= 1", workers)
	}
	rs := &ReplicaSet{}
	effective := conn
	if hc, ok := conn.(*history.Cache); ok && cfg.UseHistory {
		// Adopt the caller's (possibly shared) cache. Its stack is the
		// caller's business — the jobsvc daemon already keeps a shared
		// per-host executor below its caches — so no layer is inserted.
		rs.cache = hc
		effective = hc
	} else {
		// The execution layer serves the replicas jointly, so it wraps
		// the shared connector here, below the shared cache: replicas
		// racing one top-of-tree query coalesce on a single wire request.
		if !cfg.Exec.Disable {
			rs.exec = queryexec.New(conn, cfg.Exec.options())
			effective = rs.exec
		}
		if cfg.UseHistory {
			rs.cache = history.New(effective, history.Options{TrustCounts: cfg.TrustCounts})
			effective = rs.cache
		}
	}
	if rs.cache != nil {
		rs.savedAt0 = rs.cache.CacheStats().Saved()
	}
	rs.samplers = make([]*Sampler, workers)
	for i := range rs.samplers {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(i)*7919  // distinct streams per worker
		wcfg.UseHistory = false               // the shared cache sits below
		wcfg.Exec = ExecConfig{Disable: true} // the shared executor, too
		s, err := New(ctx, effective, wcfg)
		if err != nil {
			return nil, err
		}
		rs.samplers[i] = s
	}
	return rs, nil
}

// Workers returns the replica count.
func (rs *ReplicaSet) Workers() int { return len(rs.samplers) }

// Cache returns the history cache the replicas share (adopted or owned),
// or nil when the set runs without history.
func (rs *ReplicaSet) Cache() *history.Cache { return rs.cache }

// ExecStats returns the shared execution layer's counters; ok is false
// when the set runs without the layer (Exec.Disable, or an adopted cache
// whose stack the caller owns).
func (rs *ReplicaSet) ExecStats() (ExecStats, bool) {
	if rs.exec == nil {
		return ExecStats{}, false
	}
	return rs.exec.ExecStats(), true
}

// Schema returns the target database's discovered schema.
func (rs *ReplicaSet) Schema() *Schema { return rs.samplers[0].Schema() }

// C returns the effective rejection target of the replicas (they share
// one configuration, so replica 0 speaks for all).
func (rs *ReplicaSet) C() float64 { return rs.samplers[0].C() }

// Draw collects n accepted samples across the replicas. It may be called
// once per ReplicaSet. On error or cancellation it returns the samples
// accepted so far along with the stats; Samples() keeps the full
// provenance (reach, per-draw query cost) of the same tuples.
func (rs *ReplicaSet) Draw(ctx context.Context, n int) ([]Tuple, Stats, error) {
	rs.mu.Lock()
	if rs.started {
		rs.mu.Unlock()
		return nil, Stats{}, fmt.Errorf("hdsampler: ReplicaSet.Draw called twice")
	}
	rs.started = true
	rs.startTime = time.Now()

	// Split the target across replicas; replicas with a zero quota stay
	// idle (a pipeline target of 0 would run unbounded).
	quota := make([]int, len(rs.samplers))
	for i := 0; i < n; i++ {
		quota[i%len(quota)]++
	}
	rs.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i, s := range rs.samplers {
		if quota[i] == 0 {
			continue
		}
		// Start before publishing the pipeline, so concurrent Progress
		// calls only ever observe started pipelines.
		p := s.NewPipeline(quota[i])
		ch := p.Start(ctx)
		rs.mu.Lock()
		rs.pipelines = append(rs.pipelines, p)
		rs.mu.Unlock()
		wg.Add(1)
		go func(p *Pipeline, ch <-chan Sample) {
			defer wg.Done()
			for s := range ch {
				rs.mu.Lock()
				rs.samples = append(rs.samples, s)
				rs.mu.Unlock()
			}
			if err := p.Err(); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				errMu.Unlock()
			}
		}(p, ch)
	}
	wg.Wait()

	rs.mu.Lock()
	rs.elapsed = time.Since(rs.startTime)
	tuples := make([]Tuple, len(rs.samples))
	for i := range rs.samples {
		tuples[i] = rs.samples[i].Tuple
	}
	rs.mu.Unlock()

	st := rs.Progress()
	if firstErr == nil && len(tuples) < n {
		// Pipelines stopped short without their own error: the caller's
		// context was cancelled.
		firstErr = ctx.Err()
	}
	return tuples, st, firstErr
}

// Progress returns a live statistics snapshot; safe to call from any
// goroutine while Draw runs, and after it returns.
func (rs *ReplicaSet) Progress() Stats {
	rs.mu.Lock()
	pipelines := rs.pipelines
	accepted := int64(len(rs.samples))
	elapsed := rs.elapsed
	if elapsed == 0 && !rs.startTime.IsZero() {
		elapsed = time.Since(rs.startTime)
	}
	rs.mu.Unlock()

	st := Stats{Accepted: accepted, Elapsed: elapsed}
	for _, p := range pipelines {
		pr := p.Progress()
		st.Candidates += pr.Candidates
		st.Rejected += pr.Rejected
		st.Queries += pr.Queries
	}
	if rs.cache != nil {
		st.QueriesSaved = rs.cache.CacheStats().Saved() - rs.savedAt0
	}
	if rs.exec != nil {
		xs := rs.exec.ExecStats()
		st.QueriesCoalesced = xs.Coalesced
		st.QueriesRetried = xs.TransientRetries
	}
	return st
}

// Samples returns a snapshot of the accepted samples with provenance
// (reach probabilities and per-draw query costs) — the inputs a persisted
// store.SampleSet wants.
func (rs *ReplicaSet) Samples() []Sample {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Sample, len(rs.samples))
	copy(out, rs.samples)
	return out
}

// DrawParallel collects n accepted samples using `workers` independent
// sampler replicas over the same connector (each with a derived seed), the
// natural way to exploit a site that tolerates concurrent clients. When
// cfg.UseHistory is set the replicas share one history cache, so any
// worker's answers save every other worker's queries. It is a one-shot
// convenience over NewReplicaSet.
func DrawParallel(ctx context.Context, conn Conn, cfg Config, n, workers int) ([]Tuple, Stats, error) {
	if workers < 1 {
		return nil, Stats{}, fmt.Errorf("hdsampler: workers = %d, need >= 1", workers)
	}
	if n < workers {
		// More replicas than samples would leave idle workers; a single
		// replica (still through the ReplicaSet, so an injected cache is
		// adopted rather than double-wrapped) is equivalent.
		workers = 1
	}
	rs, err := NewReplicaSet(ctx, conn, cfg, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	return rs.Draw(ctx, n)
}

// Crawl exhaustively extracts every reachable tuple through the interface —
// the expensive alternative the paper's introduction argues against; use
// it to price a full crawl against a sample. maxQueries of 0 means
// unlimited.
func Crawl(ctx context.Context, conn Conn, maxQueries int64) ([]Tuple, int64, error) {
	c, err := core.NewCrawler(ctx, conn, core.CrawlerConfig{MaxQueries: maxQueries})
	if err != nil {
		return nil, 0, err
	}
	tuples, err := c.Run(ctx)
	return tuples, c.Queries(), err
}

// PopulationEstimate estimates the hidden database's size. It prefers the
// interface's root count (one query) and otherwise falls back to the
// birthday/collision estimator over the provided samples; ok is false when
// neither source can produce an estimate yet.
func PopulationEstimate(ctx context.Context, conn Conn, samples []Tuple) (Estimate, bool) {
	if res, err := conn.Execute(ctx, hiddendb.EmptyQuery()); err == nil && res.Count != hiddendb.CountAbsent {
		return Estimate{Value: float64(res.Count), N: len(samples)}, true
	}
	est, ok := estimate.PopulationBirthday(samples)
	return est, ok
}
