package core

import (
	"context"
	"math/rand"
	"time"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// CountWalkerConfig tunes the count-weighted drill-down sampler.
type CountWalkerConfig struct {
	Seed  int64
	Attrs []int
	// Order selects fixed or per-walk shuffled attribute order; with exact
	// counts the output distribution is uniform under any order, so the
	// order only shifts query cost.
	Order Order
	// UseParentCount probes only |dom|-1 children per level and derives
	// the last child's weight from the parent's count (the ICDE 2009
	// saving). Enable only when counts are exact: with noisy counts the
	// derived weight can be wrong or negative (it is clamped at zero,
	// which can make rows unreachable).
	UseParentCount bool
	// MaxRestarts bounds dead-end walks per candidate; 0 means 1000. Dead
	// ends only occur when the interface's counts are inconsistent with
	// its rows.
	MaxRestarts int
	// Obs observes candidate draws (latency histogram, walk tracing,
	// slow-walk log); nil disables observation.
	Obs *telemetry.WalkObserver
}

// CountWalker drills down weighting each branch by the interface-reported
// count of its subtree, as proposed in "Leveraging count information in
// sampling hidden databases" (ICDE 2009). With exact counts every tuple's
// reach probability is exactly 1/N — uniform with zero rejection. With
// approximate counts the reach reported on each candidate is still the
// exact proposal probability (we know the weights we drew from), so the
// usual acceptance/rejection step restores near-uniformity.
type CountWalker struct {
	conn   formclient.Conn
	schema *hiddendb.Schema
	cfg    CountWalkerConfig
	attrs  []int
	rng    *rand.Rand
	stats  genCounters

	// Scratch reused across walks and levels (a Generator runs on one
	// goroutine): the shuffled attribute order, plus per-level weight and
	// result buffers sized to the widest domain on first use.
	orderBuf []int
	weights  []float64
	results  []*hiddendb.Result
	// rows marks the last level's child queries: the walk picks a row
	// from the chosen one even when it overflows.
	rows rowsCtx
}

// NewCountWalker builds the sampler, fetching the schema eagerly.
func NewCountWalker(ctx context.Context, conn formclient.Conn, cfg CountWalkerConfig) (*CountWalker, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	attrs, err := resolveAttrs(schema, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 1000
	}
	return &CountWalker{
		conn:     conn,
		schema:   schema,
		cfg:      cfg,
		attrs:    attrs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		orderBuf: make([]int, len(attrs)),
	}, nil
}

// GenStats implements Generator.
func (c *CountWalker) GenStats() GenStats { return c.stats.snapshot() }

// Candidate implements Generator.
func (c *CountWalker) Candidate(ctx context.Context) (*Candidate, error) {
	sp, ctx := c.cfg.Obs.Begin(ctx, "weighted")
	restarts := 0
	queries := 0
	for restarts < c.cfg.MaxRestarts {
		cand, q, err := c.walkOnce(ctx, sp.Trace(), restarts)
		queries += q
		if err != nil {
			sp.End(queries, restarts, false, err)
			return nil, err
		}
		if cand != nil {
			cand.Queries = queries
			cand.Restarts = restarts
			c.stats.candidates.Add(1)
			cand.Trace = sp.End(queries, restarts, true, nil)
			return cand, nil
		}
		restarts++
		c.stats.restarts.Add(1)
	}
	sp.End(queries, restarts, false, ErrNoCandidate)
	return nil, ErrNoCandidate
}

// exec issues one query, tracking stats and — on traced walks — a level
// span identifying the probe (value is -1 for the root probe).
func (c *CountWalker) exec(ctx context.Context, tr *telemetry.WalkTrace, walk, depth, attr, value int, q hiddendb.Query) (*hiddendb.Result, error) {
	var res *hiddendb.Result
	var err error
	if tr != nil {
		tr.BeginLevel(walk, depth, attr, value)
		start := time.Now()
		res, err = c.conn.Execute(ctx, q)
		tr.EndLevel(levelOutcome(res, err), time.Since(start))
	} else {
		res, err = c.conn.Execute(ctx, q)
	}
	if err != nil {
		return nil, err
	}
	c.stats.queries.Add(1)
	return res, nil
}

func (c *CountWalker) walkOnce(ctx context.Context, tr *telemetry.WalkTrace, walk int) (*Candidate, int, error) {
	c.stats.walks.Add(1)
	startQueries := c.stats.queries.Load()

	order := c.attrs
	if c.cfg.Order == OrderShuffle {
		copy(c.orderBuf, c.attrs)
		c.rng.Shuffle(len(c.orderBuf), func(i, j int) { c.orderBuf[i], c.orderBuf[j] = c.orderBuf[j], c.orderBuf[i] })
		order = c.orderBuf
	}

	q := hiddendb.EmptyQuery()
	proposal := 1.0
	parentCount := -1

	if c.cfg.UseParentCount {
		root, err := c.exec(ctx, tr, walk, 0, -1, -1, q)
		if err != nil {
			return nil, c.walkCost(startQueries), err
		}
		if root.Count == hiddendb.CountAbsent {
			return nil, c.walkCost(startQueries), ErrNoCounts
		}
		if root.Valid() {
			// Whole database fits under k: sample directly.
			return c.pick(root, proposal, 0), c.walkCost(startQueries), nil
		}
		if root.Empty() {
			return nil, c.walkCost(startQueries), ErrNoCandidate
		}
		parentCount = root.Count
	}

	for depth, attr := range order {
		dom := c.schema.DomainSize(attr)
		lctx := ctx
		if depth == len(order)-1 {
			lctx = c.rows.of(ctx)
		}
		if cap(c.weights) < dom {
			c.weights = make([]float64, dom)
			c.results = make([]*hiddendb.Result, dom)
		}
		weights := c.weights[:dom]
		results := c.results[:dom]
		for v := range dom {
			weights[v] = 0
			results[v] = nil
		}
		sum := 0.0
		for v := 0; v < dom; v++ {
			if c.cfg.UseParentCount && parentCount >= 0 && v == dom-1 {
				w := float64(parentCount) - sum
				if w < 0 {
					w = 0
				}
				weights[v] = w
				continue
			}
			res, err := c.exec(lctx, tr, walk, depth, attr, v, q.With(attr, v))
			if err != nil {
				return nil, c.walkCost(startQueries), err
			}
			if res.Count == hiddendb.CountAbsent {
				return nil, c.walkCost(startQueries), ErrNoCounts
			}
			w := float64(res.Count)
			if w < 0 {
				w = 0
			}
			weights[v] = w
			results[v] = res
			sum += w
		}
		total := 0.0
		for _, w := range weights {
			total += w
		}
		if total <= 0 {
			return nil, c.walkCost(startQueries), nil // inconsistent counts: restart
		}
		v := drawWeighted(c.rng, weights, total)
		proposal *= weights[v] / total
		q = q.With(attr, v)
		res := results[v]
		if res == nil { // the inferred child: fetch it now that it is chosen
			var err error
			res, err = c.exec(lctx, tr, walk, depth, attr, v, q)
			if err != nil {
				return nil, c.walkCost(startQueries), err
			}
		}
		switch {
		case res.Empty():
			// Counts promised rows that are not there (a lying interface);
			// restart rather than loop forever.
			return nil, c.walkCost(startQueries), nil
		case res.Valid(), depth == len(order)-1:
			if len(res.Tuples) == 0 {
				return nil, c.walkCost(startQueries), nil // row-less page: restart
			}
			return c.pick(res, proposal, depth+1), c.walkCost(startQueries), nil
		}
		parentCount = res.Count
	}
	return nil, c.walkCost(startQueries), nil
}

// walkCost converts the stats delta into the per-walk query count.
func (c *CountWalker) walkCost(start int64) int {
	return int(c.stats.queries.Load() - start)
}

// pick selects one visible row uniformly.
func (c *CountWalker) pick(res *hiddendb.Result, proposal float64, depth int) *Candidate {
	idx := c.rng.Intn(len(res.Tuples))
	return &Candidate{
		Tuple: res.Tuples[idx].Clone(),
		Reach: proposal / float64(len(res.Tuples)),
		Depth: depth,
	}
}

// drawWeighted samples an index proportionally to weights (total is their
// sum, > 0).
func drawWeighted(rng *rand.Rand, weights []float64, total float64) int {
	u := rng.Float64() * total
	acc := 0.0
	last := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		last = i
		if u < acc {
			return i
		}
	}
	return last // FP drift guard: return the last positive-weight index
}

var _ Generator = (*CountWalker)(nil)
