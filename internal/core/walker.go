package core

import (
	"context"
	"math/rand"
	"time"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// Order selects how the random walk orders attributes.
type Order int

const (
	// OrderFixed walks attributes in schema order every time.
	OrderFixed Order = iota
	// OrderShuffle reshuffles the attribute order before every walk — the
	// SIGMOD 2007 paper's variance reducer: a tuple unlucky under one
	// order is reachable earlier under another, flattening the reach
	// distribution.
	OrderShuffle
)

// String names the order mode.
func (o Order) String() string {
	if o == OrderShuffle {
		return "shuffle"
	}
	return "fixed"
}

// WalkerConfig tunes the HIDDEN-DB-SAMPLER generator.
type WalkerConfig struct {
	// Seed drives all of the walker's randomness.
	Seed int64
	// Order selects fixed or per-walk shuffled attribute order.
	Order Order
	// Attrs optionally restricts the walk to an attribute subset
	// (sampling "the whole dataset or a specific selection of attributes",
	// demo §3.1). Empty means all attributes.
	Attrs []int
	// MaxRestarts bounds dead-end walks per candidate; 0 means 100000.
	MaxRestarts int
	// Obs observes candidate draws (latency histogram, walk tracing,
	// slow-walk log); nil disables observation.
	Obs *telemetry.WalkObserver
}

// Walker implements HIDDEN-DB-SAMPLER: a random drill-down from broad,
// overflowing queries toward the first non-overflowing (valid) query,
// picking one returned row uniformly. Candidates carry their exact reach
// probability for the downstream acceptance/rejection step.
type Walker struct {
	conn   formclient.Conn
	schema *hiddendb.Schema
	cfg    WalkerConfig
	attrs  []int
	rng    *rand.Rand
	stats  genCounters

	// orderBuf and predBuf are scratch reused across the up-to-MaxRestarts
	// (default 100k) walks of a single candidate draw: the shuffled
	// attribute order and the walk's predicates in canonical order. Both
	// are sized to the attribute count at construction, so walks never
	// grow them. A Walker is single-goroutine by contract (Generator), so
	// plain fields suffice.
	orderBuf []int
	predBuf  []hiddendb.Predicate
	// rows marks the last level's query, whose overflow rows the walk
	// picks from.
	rows rowsCtx
}

// NewWalker builds a walker over conn, fetching the schema eagerly.
func NewWalker(ctx context.Context, conn formclient.Conn, cfg WalkerConfig) (*Walker, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	attrs, err := resolveAttrs(schema, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 100000
	}
	return &Walker{
		conn:     conn,
		schema:   schema,
		cfg:      cfg,
		attrs:    attrs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		orderBuf: make([]int, len(attrs)),
		predBuf:  make([]hiddendb.Predicate, 0, len(attrs)),
	}, nil
}

// Schema returns the schema the walker operates over.
func (w *Walker) Schema() *hiddendb.Schema { return w.schema }

// GenStats implements Generator.
func (w *Walker) GenStats() GenStats { return w.stats.snapshot() }

// Candidate implements Generator: it repeats random walks until one yields
// a candidate.
func (w *Walker) Candidate(ctx context.Context) (*Candidate, error) {
	sp, ctx := w.cfg.Obs.Begin(ctx, "walk")
	restarts := 0
	queries := 0
	for restarts < w.cfg.MaxRestarts {
		cand, q, err := w.walkOnce(ctx, sp.Trace(), restarts)
		queries += q
		if err != nil {
			sp.End(queries, restarts, false, err)
			return nil, err
		}
		if cand != nil {
			cand.Queries = queries
			cand.Restarts = restarts
			w.stats.candidates.Add(1)
			cand.Trace = sp.End(queries, restarts, true, nil)
			return cand, nil
		}
		restarts++
		w.stats.restarts.Add(1)
	}
	sp.End(queries, restarts, false, ErrNoCandidate)
	return nil, ErrNoCandidate
}

// walkOnce performs one drill-down, recording per-level spans on tr when
// the draw is traced. It returns (nil, queries, nil) on a dead end.
func (w *Walker) walkOnce(ctx context.Context, tr *telemetry.WalkTrace, walk int) (*Candidate, int, error) {
	w.stats.walks.Add(1)
	order := w.attrs
	if w.cfg.Order == OrderShuffle {
		copy(w.orderBuf, w.attrs)
		w.rng.Shuffle(len(w.orderBuf), func(i, j int) { w.orderBuf[i], w.orderBuf[j] = w.orderBuf[j], w.orderBuf[i] })
		order = w.orderBuf
	}
	preds := w.predBuf[:0]
	pathProb := 1.0
	queries := 0
	for depth, attr := range order {
		dom := w.schema.DomainSize(attr)
		v := w.rng.Intn(dom)
		preds = insertPred(preds, hiddendb.Predicate{Attr: attr, Value: v})
		q, err := hiddendb.QueryFromSorted(preds)
		if err != nil {
			return nil, queries, err
		}
		pathProb /= float64(dom)
		qctx := ctx
		if depth == len(order)-1 {
			qctx = w.rows.of(ctx)
		}

		var res *hiddendb.Result
		if tr != nil {
			// Per-level timing runs only on traced walks; the untraced hot
			// path reads no clocks.
			tr.BeginLevel(walk, depth, attr, v)
			start := time.Now()
			res, err = w.conn.Execute(qctx, q)
			tr.EndLevel(levelOutcome(res, err), time.Since(start))
		} else {
			res, err = w.conn.Execute(qctx, q)
		}
		if err != nil {
			return nil, queries, err
		}
		queries++
		w.stats.queries.Add(1)

		switch {
		case res.Empty():
			return nil, queries, nil // dead end: restart
		case res.Valid():
			return w.pick(res, pathProb, depth+1), queries, nil
		case depth == len(order)-1:
			// Fully specified (over the walk's attributes) yet still
			// overflowing: only the top-k rows are visible through the
			// interface, and this query asked for them; pick uniformly
			// among them. Reach stays exact: it is the probability of
			// emitting this visible row. A row-less overflow page (a site
			// that never shows them) leaves nothing to pick: restart.
			if len(res.Tuples) == 0 {
				return nil, queries, nil
			}
			return w.pick(res, pathProb, depth+1), queries, nil
		}
		// Overflow: extend the query with the next attribute.
	}
	return nil, queries, nil // unreachable: loop always returns
}

// insertPred inserts p into an attribute-sorted scratch slice, keeping it
// in canonical order; the walk adds attributes in (possibly shuffled)
// walk order, so the insertion point can be anywhere.
func insertPred(preds []hiddendb.Predicate, p hiddendb.Predicate) []hiddendb.Predicate {
	preds = append(preds, p)
	i := len(preds) - 1
	for i > 0 && preds[i-1].Attr > p.Attr {
		preds[i] = preds[i-1]
		i--
	}
	preds[i] = p
	return preds
}

// pick selects one returned row uniformly and packages the candidate.
func (w *Walker) pick(res *hiddendb.Result, pathProb float64, depth int) *Candidate {
	idx := w.rng.Intn(len(res.Tuples))
	// The candidate is the walk's product and outlives the draw: one
	// &Candidate plus its Clone per successful walk.
	return &Candidate{
		Tuple: res.Tuples[idx].Clone(),
		Reach: pathProb / float64(len(res.Tuples)),
		Depth: depth,
	}
}

// levelOutcome classifies a drill-down query's result for tracing.
func levelOutcome(res *hiddendb.Result, err error) telemetry.LevelOutcome {
	switch {
	case err != nil:
		return telemetry.LevelError
	case res.Empty():
		return telemetry.LevelEmpty
	case res.Valid():
		return telemetry.LevelValid
	default:
		return telemetry.LevelOverflow
	}
}

var _ Generator = (*Walker)(nil)
