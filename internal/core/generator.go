// Package core implements the sampling algorithms HDSampler packages: the
// HIDDEN-DB-SAMPLER random drill-down (SIGMOD 2007), the provably-uniform
// BRUTE-FORCE-SAMPLER validation baseline, the count-weighted drill-down
// from the ICDE 2009 count-leveraging work, the acceptance/rejection
// processor realizing the demo's efficiency↔skew slider, and the
// incremental Generator → Processor → Output pipeline of the demo's
// architecture (Figure 2), complete with its kill switch.
//
// All samplers access the hidden database exclusively through a
// formclient.Conn — the conjunctive top-k interface — and never see
// anything a web client could not.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// ErrNoCandidate is returned when a generator exhausts its restart budget
// without producing a candidate (e.g. an extremely sparse database).
var ErrNoCandidate = errors.New("core: restart budget exhausted without a candidate")

// ErrNoCounts is returned by the count-weighted sampler when the interface
// does not report counts.
var ErrNoCounts = errors.New("core: interface reports no counts")

// Candidate is one tuple pulled off the interface by a generator, before
// acceptance/rejection. Reach is the exact probability that the generating
// procedure produced this particular row on this attempt — the quantity
// the rejection step needs to undo the walk's skew.
type Candidate struct {
	Tuple hiddendb.Tuple
	// Reach is the probability the walk that produced this candidate chose
	// this row: the product of the per-level branch probabilities times
	// the uniform pick among the returned rows.
	Reach float64
	// Queries is the number of interface queries this draw consumed,
	// including restarted walks.
	Queries int
	// Depth is the number of predicates in the final query.
	Depth int
	// Restarts is the number of dead-end walks before this candidate.
	Restarts int
	// Trace is the walk's telemetry trace when this draw was sampled for
	// tracing (nil otherwise). The acceptance/rejection stage records its
	// decision on it and finishes it.
	Trace *telemetry.WalkTrace
}

// Generator produces candidate samples. Implementations are not safe for
// concurrent use; give each goroutine its own generator.
type Generator interface {
	// Candidate draws the next candidate, retrying dead-end walks
	// internally. It fails with ErrNoCandidate when the restart budget is
	// exhausted, or with the connector's error (rate limiting, budget,
	// cancelled context).
	Candidate(ctx context.Context) (*Candidate, error)
	// GenStats reports cumulative generator-side counters.
	GenStats() GenStats
}

// GenStats counts a generator's work.
type GenStats struct {
	// Walks is the number of drill-downs started, Restarts the subset that
	// dead-ended, Candidates the number of candidates produced.
	Walks      int64
	Restarts   int64
	Candidates int64
	// Queries is the number of interface queries issued by this generator
	// (as observed through its connector calls).
	Queries int64
}

// genCounters is the generators' internal counter set. Counters are
// atomic because live progress displays read them from other goroutines
// while a walk is underway.
type genCounters struct {
	walks, restarts, candidates, queries atomic.Int64
}

// snapshot materializes the counters as a GenStats value.
func (c *genCounters) snapshot() GenStats {
	return GenStats{
		Walks:      c.walks.Load(),
		Restarts:   c.restarts.Load(),
		Candidates: c.candidates.Load(),
		Queries:    c.queries.Load(),
	}
}

// rowsCtx marks the queries whose overflow rows a generator reads
// (formclient.WantRows) without allocating per query: it keeps the marked
// context derived from the last context its caller passed, and a caller
// that keeps passing the same context — an untraced draw loop — reuses it.
type rowsCtx struct{ parent, marked context.Context }

// of returns ctx marked as wanting rows.
func (r *rowsCtx) of(ctx context.Context) context.Context {
	if r.parent != ctx {
		r.parent, r.marked = ctx, formclient.WantRows(ctx)
	}
	return r.marked
}

// resolveAttrs validates an optional attribute subset against the schema,
// defaulting to all attributes. The subset is the demo's Figure 3 scoping:
// the user may restrict sampling to the attributes of interest.
func resolveAttrs(schema *hiddendb.Schema, attrs []int) ([]int, error) {
	if len(attrs) == 0 {
		out := make([]int, schema.NumAttrs())
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool, len(attrs))
	out := make([]int, 0, len(attrs))
	for _, a := range attrs {
		if a < 0 || a >= schema.NumAttrs() {
			return nil, fmt.Errorf("core: attribute %d out of range [0,%d)", a, schema.NumAttrs())
		}
		if seen[a] {
			return nil, fmt.Errorf("core: duplicate attribute %d in scope", a)
		}
		seen[a] = true
		out = append(out, a)
	}
	return out, nil
}

// subspaceSize returns the size of the cross-product space restricted to
// the given attributes.
func subspaceSize(schema *hiddendb.Schema, attrs []int) float64 {
	size := 1.0
	for _, a := range attrs {
		size *= float64(schema.DomainSize(a))
	}
	return size
}
