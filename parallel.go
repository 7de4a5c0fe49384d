package hdsampler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
	"hdsampler/internal/hiddendb"
)

// Sample is one accepted sample with its provenance.
type Sample struct {
	Tuple Tuple
	// Reach is the candidate's reach probability (before rejection).
	Reach float64
	// Queries is the number of interface queries the producing draw cost.
	Queries int
}

// ReplicaSet is the replica machinery behind DrawParallel, exposed as a
// reusable object for long-running callers (the jobsvc daemon and the web
// UI) that need live progress and partial results while a draw is
// underway: `workers` independent sampler replicas over the same
// connector, each with a derived seed, each running core.Draw on its own
// goroutine into one shared tally. Cancelling Draw's context is the kill
// switch.
//
// The set draws through the connector it is given and adds no layer of
// its own: pass a Stack's Conn to share its history cache and execution
// layer across the replicas (and across every other set over the same
// Stack — that is how a service shares one stack per target across many
// concurrent ReplicaSets). The Stack's layers are safe for concurrent use
// and the cache is sharded, so replicas never serialize on it.
//
// Each replica owns its generator and its acceptance/rejection processor
// (seeded per replica), so no replica shares mutable sampler state with
// another; the acceptors themselves are also concurrency-safe, so even a
// deliberately shared Acceptor would stay race-free.
//
// The combined sample is a fair mixture of independent samplers and keeps
// the per-replica statistical guarantees.
type ReplicaSet struct {
	replicas []replica
	tally    core.Tally

	mu        sync.Mutex
	started   bool
	startTime time.Time
	elapsed   time.Duration
	samples   []Sample
}

// NewReplicaSet builds `workers` sampler replicas over conn. Replica i
// samples with seed cfg.Seed + i·7919, so runs with equal configurations
// are reproducible. The stack options in cfg (UseHistory, TrustCounts,
// Exec) are not read: conn is the stack the replicas draw through.
func NewReplicaSet(ctx context.Context, conn Conn, cfg Config, workers int) (*ReplicaSet, error) {
	if workers < 1 {
		return nil, fmt.Errorf("hdsampler: workers = %d, need >= 1", workers)
	}
	rs := &ReplicaSet{replicas: make([]replica, workers)}
	for i := range rs.replicas {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(i)*7919 // distinct streams per worker
		r, err := newReplica(ctx, conn, wcfg)
		if err != nil {
			return nil, err
		}
		rs.replicas[i] = r
	}
	return rs, nil
}

// Workers returns the replica count.
func (rs *ReplicaSet) Workers() int { return len(rs.replicas) }

// Schema returns the target database's discovered schema.
func (rs *ReplicaSet) Schema() *Schema { return rs.replicas[0].Schema() }

// C returns the effective rejection target of the replicas (they share
// one configuration, so replica 0 speaks for all).
func (rs *ReplicaSet) C() float64 { return rs.replicas[0].C() }

// Draw collects n accepted samples across the replicas: n/w from each and
// one more from the first n%w. It may be called once per ReplicaSet. On
// error or cancellation it returns the samples accepted so far along with
// the stats; Samples() keeps the full provenance (reach, per-draw query
// cost) of the same tuples.
func (rs *ReplicaSet) Draw(ctx context.Context, n int) ([]Tuple, Stats, error) {
	rs.mu.Lock()
	if rs.started {
		rs.mu.Unlock()
		return nil, Stats{}, fmt.Errorf("hdsampler: ReplicaSet.Draw called twice")
	}
	rs.started = true
	rs.startTime = time.Now()
	rs.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	emit := func(c *core.Candidate) {
		rs.mu.Lock()
		rs.samples = append(rs.samples, Sample{Tuple: c.Tuple, Reach: c.Reach, Queries: c.Queries})
		rs.mu.Unlock()
	}
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	w := len(rs.replicas)
	for i, r := range rs.replicas {
		quota := n / w
		if i < n%w {
			quota++
		}
		wg.Add(1)
		go func(r replica, quota int) {
			defer wg.Done()
			// An error after cancellation is the cancellation's echo, not
			// this replica's failure.
			if err := core.Draw(ctx, r.gen, r.rej, quota, &rs.tally, emit); err != nil && ctx.Err() == nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(r, quota)
	}
	wg.Wait()

	rs.mu.Lock()
	rs.elapsed = time.Since(rs.startTime)
	tuples := make([]Tuple, len(rs.samples))
	for i := range rs.samples {
		tuples[i] = rs.samples[i].Tuple
	}
	rs.mu.Unlock()

	if firstErr == nil && len(tuples) < n {
		// The replicas stopped short without an error of their own: the
		// caller's context was cancelled.
		firstErr = ctx.Err()
	}
	return tuples, rs.Progress(), firstErr
}

// Progress returns a live statistics snapshot; safe to call from any
// goroutine while Draw runs, and after it returns. The stack's savings
// (QueriesSaved, QueriesCoalesced, QueriesRetried) are the Stack's to
// report, so they stay zero here.
func (rs *ReplicaSet) Progress() Stats {
	rs.mu.Lock()
	elapsed := rs.elapsed
	if elapsed == 0 && !rs.startTime.IsZero() {
		elapsed = time.Since(rs.startTime)
	}
	rs.mu.Unlock()
	st := statsOf(rs.tally.Counts())
	st.Elapsed = elapsed
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
// natural way to exploit a site that tolerates concurrent clients. The
// replicas share one Stack — one execution layer, and with cfg.UseHistory
// one history cache, so any worker's answers save every other worker's
// queries. It is a one-shot convenience over NewStack and NewReplicaSet.
func DrawParallel(ctx context.Context, conn Conn, cfg Config, n, workers int) ([]Tuple, Stats, error) {
	if workers < 1 {
		return nil, Stats{}, fmt.Errorf("hdsampler: workers = %d, need >= 1", workers)
	}
	if n < workers {
		// More replicas than samples would leave idle workers; a single
		// replica is equivalent.
		workers = 1
	}
	st := cfg.stack(conn)
	rs, err := NewReplicaSet(ctx, st.Conn(), cfg, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	tuples, stats, err := rs.Draw(ctx, n)
	st.fill(&stats, Stats{})
	return tuples, stats, err
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
