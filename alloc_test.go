package hdsampler

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// walkMix is the fixed-seed draw the exact counters below and
// BenchmarkExecuteWalkMix share: 200 samples drawn with the CLI's defaults
// (random walk, shuffled order, history, slider 0.85) over 100k vehicles
// at k = 1000, the local-walk benchmark's shape at a tenth of its rows.
const (
	walkMixRows    = 100_000
	walkMixK       = 1000
	walkMixSamples = 200
)

// walkMixDB builds the shared database once per test binary.
var walkMixDB = sync.OnceValues(func() (*hiddendb.DB, error) {
	ds := datagen.Vehicles(walkMixRows, 1)
	return hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: walkMixK})
})

// drawWalkMix runs the fixed-seed draw over conn and returns its stats.
func drawWalkMix(tb testing.TB, conn Conn) Stats {
	tb.Helper()
	ctx := context.Background()
	s, err := New(ctx, conn, Config{Seed: 1, Slider: 0.85, K: walkMixK, ShuffleOrder: true, UseHistory: true})
	if err != nil {
		tb.Fatal(err)
	}
	got, st, err := s.Draw(ctx, walkMixSamples)
	if err != nil {
		tb.Fatal(err)
	}
	if len(got) != walkMixSamples {
		tb.Fatalf("drew %d samples, want %d", len(got), walkMixSamples)
	}
	return st
}

// TestDrawCountersAndAllocs gates a fixed-seed Draw's deterministic
// counters exactly: the interface queries the walk issued (Stats.Queries)
// and the wire calls the database answered (DB.QueriesServed). Both are
// fixed by the seed; a change to the walk, the history cache or the
// connector that moves either one changes what the sampler costs. The
// allocations per sample get a ceiling, since the pools a collection
// empties refill at any time.
func TestDrawCountersAndAllocs(t *testing.T) {
	db, err := walkMixDB()
	if err != nil {
		t.Fatal(err)
	}
	served := db.QueriesServed()
	st := drawWalkMix(t, LocalConn(db))
	const wantQueries, wantWire = 655, 423
	if st.Queries != wantQueries {
		t.Errorf("Stats.Queries = %d, want %d", st.Queries, wantQueries)
	}
	if got := db.QueriesServed() - served; got != wantWire {
		t.Errorf("DB.QueriesServed grew by %d, want %d", got, wantWire)
	}

	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; ceilings measured without -race")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drawWalkMix(t, LocalConn(db))
	runtime.ReadMemStats(&m1)
	// The draw allocated 29.0 times per sample when formclient.Local
	// still built every overflowing answer's rows, 27.9 once unwanted
	// overflow answers came back row-less, and 23.7 since the execution
	// layer sends each query without a flight record. The ceiling leaves
	// 0.6 per sample of slack for pools a collection emptied (GOGC=10
	// read 23.80).
	perSample := float64(m1.Mallocs-m0.Mallocs) / walkMixSamples
	t.Logf("%.2f allocations per sample", perSample)
	if perSample > 24.3 {
		t.Fatalf("Draw allocated %.2f times per sample, want <= 24.3", perSample)
	}
}
