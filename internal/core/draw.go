package core

import (
	"context"
	"sync/atomic"

	"hdsampler/internal/hiddendb"
)

// Tally holds a draw loop's counters, the live progress the demo's front
// end displays while sampling is underway. The counters are atomic: other
// goroutines may read them while Draw runs, and several Draws may add
// into one Tally.
type Tally struct {
	candidates, accepted, rejected, queries atomic.Int64
}

// Counts is a reading of a Tally.
type Counts struct {
	Candidates int64
	Accepted   int64
	Rejected   int64
	// Queries is the interface query bill of every processed candidate,
	// accepted or rejected: the sum of their draw costs. A draw that
	// failed or was cancelled midway produced no candidate and is not
	// billed.
	Queries int64
}

// Counts reads the tally.
func (t *Tally) Counts() Counts {
	return Counts{
		Candidates: t.candidates.Load(),
		Accepted:   t.accepted.Load(),
		Rejected:   t.rejected.Load(),
		Queries:    t.queries.Load(),
	}
}

// Draw runs the demo's Sample Generator → Sample Processor → Output
// Module loop (Figure 2) on the caller's goroutine: it draws a candidate
// from gen, adds it to t, lets rej decide its fate (nil accepts
// everything) and passes it to emit if accepted. It draws the next
// candidate only once the last one is processed, so t bills every query
// gen issues except those of a draw cut short by an error or a
// cancellation. Draw returns nil once n candidates are accepted, ctx's
// error once ctx is cancelled — the kill switch, which emit may pull
// itself — and gen's error when a draw fails.
func Draw(ctx context.Context, gen Generator, rej Acceptor, n int, t *Tally, emit func(*Candidate)) error {
	for accepted := 0; accepted < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		cand, err := gen.Candidate(ctx)
		if err != nil {
			return err
		}
		t.candidates.Add(1)
		t.queries.Add(int64(cand.Queries))
		if rej != nil && !rej.Accept(cand) {
			cand.Trace.Decide(false)
			t.rejected.Add(1)
			continue
		}
		cand.Trace.Decide(true)
		t.accepted.Add(1)
		accepted++
		emit(cand)
	}
	return nil
}

// Collect draws n accepted samples with Draw and returns their tuples and
// the run's counts.
func Collect(ctx context.Context, gen Generator, rej Acceptor, n int) ([]hiddendb.Tuple, Counts, error) {
	var t Tally
	out := make([]hiddendb.Tuple, 0, n)
	err := Draw(ctx, gen, rej, n, &t, func(c *Candidate) { out = append(out, c.Tuple) })
	return out, t.Counts(), err
}
