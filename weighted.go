package hdsampler

import (
	"context"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
)

// WeightedSet holds reach-weighted candidates for Horvitz–Thompson
// aggregate estimation (see DrawWeighted).
type WeightedSet = estimate.WeightedSet

// DrawWeighted collects n candidates *without* acceptance/rejection,
// keeping each one's exact reach probability. Aggregates computed from the
// returned set via its Count/Sum/Avg/Population methods are unbiased over
// reachable tuples (Horvitz–Thompson weighting), so every interface query
// contributes — the alternative to burning queries on rejection when the
// goal is an aggregate rather than a uniform sample.
func (s *Sampler) DrawWeighted(ctx context.Context, n int) (*WeightedSet, Stats, error) {
	ws := &WeightedSet{}
	m := s.stack.mark()
	var t core.Tally
	err := core.Draw(ctx, s.gen, nil, n, &t, func(c *core.Candidate) { ws.Add(c.Tuple, c.Reach, c.Restarts) })
	st := statsOf(t.Counts())
	// Per-call deltas, like Draw: consecutive calls must not double-report
	// the stack's cumulative savings.
	s.stack.fill(&st, m)
	return ws, st, err
}
