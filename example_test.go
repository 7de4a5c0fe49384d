package hdsampler_test

// Documentation examples for the public API. The ones with Output
// comments run under go test against in-process simulated databases
// (sample counts are deterministic: Draw returns exactly n accepted
// samples); the rest are compile-checked and rendered by godoc, their
// output being statistical.

import (
	"context"
	"fmt"
	"log"

	"hdsampler"
	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// Example shows the canonical flow: dial a hidden database's web form
// interface, draw near-uniform samples, and answer an aggregate.
func Example() {
	ctx := context.Background()
	conn := hdsampler.Dial("http://dealer.example.com")
	s, err := hdsampler.New(ctx, conn, hdsampler.Config{
		Slider: 0.85, K: 1000, ShuffleOrder: true, UseHistory: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	samples, stats, err := s.Draw(ctx, 300)
	if err != nil {
		log.Fatal(err)
	}
	schema := s.Schema()
	pred := hiddendb.MustQuery(hiddendb.Predicate{Attr: schema.AttrIndex("make"), Value: 0})
	fmt.Printf("%d samples, %d queries; share: %s\n",
		stats.Accepted, stats.Queries, hdsampler.ProportionEstimate(samples, pred))
}

// ExampleNew_localSimulation samples an in-process database — the demo's
// "locally simulated hidden database" backup plan.
func ExampleNew_localSimulation() {
	ds := datagen.Vehicles(10000, 1)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 1000, CountMode: hiddendb.CountExact})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	s, err := hdsampler.New(ctx, hdsampler.LocalConn(db), hdsampler.Config{
		Method: hdsampler.MethodCountWeighted, UseParentCount: true, K: db.K(),
	})
	if err != nil {
		log.Fatal(err)
	}
	samples, _, err := s.Draw(ctx, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(samples))
}

// ExampleSampler_Draw draws a fixed number of near-uniform samples from
// an in-process hidden database and reports what the walk cost. It runs
// under go test: every piece — dataset, walk, rejection — is seeded, so
// the draw is reproducible.
func ExampleSampler_Draw() {
	ds := datagen.Vehicles(20000, 7)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 1000})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	s, err := hdsampler.New(ctx, hdsampler.LocalConn(db), hdsampler.Config{
		Seed: 42, UseHistory: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	samples, stats, err := s.Draw(ctx, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted %d of %d requested; every sample schema-wide: %v\n",
		stats.Accepted, len(samples), len(samples[0].Vals) == len(s.Schema().Attrs))
	// Output:
	// accepted 50 of 50 requested; every sample schema-wide: true
}

// ExampleDrawParallel fans a draw out over independent sampler replicas
// sharing one history cache — the way to exploit a site that tolerates
// concurrent clients. It runs under go test; the combined sample is a
// fair mixture of the replicas' independent streams.
func ExampleDrawParallel() {
	ds := datagen.Vehicles(20000, 7)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 1000})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	samples, stats, err := hdsampler.DrawParallel(ctx, hdsampler.LocalConn(db), hdsampler.Config{
		Seed: 42, UseHistory: true,
	}, 80, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted %d of %d requested\n", stats.Accepted, len(samples))
	// Output:
	// accepted 80 of 80 requested
}

// ExampleSampler_DrawWeighted estimates an aggregate and the database size
// from unrejected candidates via Horvitz–Thompson weighting.
func ExampleSampler_DrawWeighted() {
	ds := datagen.Vehicles(8000, 3)
	db, _ := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 1000})
	ctx := context.Background()
	s, err := hdsampler.New(ctx, hdsampler.LocalConn(db), hdsampler.Config{ShuffleOrder: true})
	if err != nil {
		log.Fatal(err)
	}
	ws, _, err := s.DrawWeighted(ctx, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated size: %s\n", ws.Population())
}
