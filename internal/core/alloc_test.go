package core

import (
	"context"
	"testing"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// depthConn answers every query with fewer than valid predicates as a
// row-less overflow and every other query with one visible row, so each
// walk drills exactly valid levels. Both answers are preallocated: the
// conn itself never allocates.
type depthConn struct {
	schema    *hiddendb.Schema
	valid     int
	over, hit *hiddendb.Result
}

func (c *depthConn) Schema(context.Context) (*hiddendb.Schema, error) { return c.schema, nil }
func (c *depthConn) Execute(_ context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if q.Len() < c.valid {
		return c.over, nil
	}
	return c.hit, nil
}
func (c *depthConn) Stats() formclient.Stats { return formclient.Stats{} }

// TestWalkerCandidateAllocs pins the drill-down's allocation budget: per
// level, the query's predicate copy and its key (QueryFromSorted); per
// candidate, the &Candidate and its tuple Clone. The attribute shuffle
// adds nothing.
func TestWalkerCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	schema := hiddendb.MustSchema("alloc",
		hiddendb.CatAttr("a", "x", "y", "z"), hiddendb.CatAttr("b", "x", "y", "z"),
		hiddendb.CatAttr("c", "x", "y", "z"), hiddendb.CatAttr("d", "x", "y", "z"))
	over := &hiddendb.Result{Overflow: true, Count: hiddendb.CountAbsent}
	hit := &hiddendb.Result{Tuples: []hiddendb.Tuple{{Vals: []int{0, 1, 2, 0}}}, Count: hiddendb.CountAbsent}
	ctx := context.Background()
	for _, order := range []Order{OrderFixed, OrderShuffle} {
		for d := 1; d <= schema.NumAttrs(); d++ {
			w, err := NewWalker(ctx, &depthConn{schema: schema, valid: d, over: over, hit: hit}, WalkerConfig{Seed: 1, Order: order})
			if err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(100, func() {
				if _, err := w.Candidate(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if want := float64(2 + 2*d); n > want {
				t.Errorf("%s order, valid at depth %d: %.2f allocs per candidate, want <= %.0f", order, d, n, want)
			}
		}
	}
}
