package queryexec

import (
	"context"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// TestExecutorLeaderAllocs pins the leader path's allocation budget: a
// query with no identical flight in progress costs its flight record and
// that record's done channel, nothing more.
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
	if n > 2 {
		t.Fatalf("leader Execute allocated %.2f per call, want <= 2 (flight record + done channel)", n)
	}
}
