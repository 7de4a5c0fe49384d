package queryexec

import (
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// TestExecutorLeaderAllocs pins the executor's allocation budget: an
// unlimited Execute over a connector that allocates nothing allocates
// nothing itself.
func TestExecutorLeaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	ds := datagen.Vehicles(50, 7)
	x := New(&fixedConn{schema: ds.Schema, res: &hiddendb.Result{Count: hiddendb.CountAbsent}}, Options{})
	ctx := context.Background()
	q := hiddendb.MustQuery(hiddendb.Predicate{Attr: 0, Value: 1}, hiddendb.Predicate{Attr: 2, Value: 0})
	n := testing.AllocsPerRun(200, func() {
		if _, err := x.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Fatalf("Execute allocated %.2f per call, want 0", n)
	}
}
