package hdsampler

import (
	"context"

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
	startQueries := s.gen.GenStats().Queries
	m := s.stack.mark()
	var st Stats
	for len(ws.Samples) < n {
		if err := ctx.Err(); err != nil {
			return ws, st, err
		}
		cand, err := s.gen.Candidate(ctx)
		if err != nil {
			st.Queries = s.gen.GenStats().Queries - startQueries
			return ws, st, err
		}
		st.Candidates++
		st.Accepted++
		ws.Add(cand.Tuple, cand.Reach, cand.Restarts)
	}
	st.Queries = s.gen.GenStats().Queries - startQueries
	// Per-call deltas, like Draw: consecutive calls must not double-report
	// the stack's cumulative savings.
	s.stack.fill(&st, m)
	return ws, st, nil
}
