package history

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// TestConcurrentOverlappingQueries exercises one shared cache from many
// goroutines issuing overlapping ancestor/descendant queries (run under
// -race in CI): every answer must equal the uncached connector's answer,
// and the counters must account for every call.
func TestConcurrentOverlappingQueries(t *testing.T) {
	const (
		workers = 8
		rounds  = 150
	)
	ds := datagen.IIDBoolean(6, 80, 0.5, 42)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 20, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	local := formclient.NewLocal(db)
	cache := New(local, Options{TrustCounts: true, Shards: 8})
	ctx := context.Background()

	var calls atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Walk ancestor chains: extend a query predicate by predicate
			// so goroutines constantly hit each other's ancestors.
			for r := 0; r < rounds; r++ {
				q := hiddendb.EmptyQuery()
				for a := 0; a < 6; a++ {
					if rng.Intn(2) == 0 {
						continue
					}
					q = q.With(a, rng.Intn(2))
					got, err := cache.Execute(ctx, q)
					if err != nil {
						errc <- err
						return
					}
					calls.Add(1)
					want, err := db.Execute(q)
					if err != nil {
						errc <- err
						return
					}
					if got.Overflow != want.Overflow {
						t.Errorf("query %v: overflow %v, want %v", q, got.Overflow, want.Overflow)
						return
					}
					if !got.Overflow {
						if len(got.Tuples) != len(want.Tuples) {
							t.Errorf("query %v: %d tuples, want %d", q, len(got.Tuples), len(want.Tuples))
							return
						}
						for i := range want.Tuples {
							if got.Tuples[i].ID != want.Tuples[i].ID {
								t.Errorf("query %v: tuple %d differs", q, i)
								return
							}
						}
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := cache.CacheStats()
	if got := st.Issued + st.Saved(); got != calls.Load() {
		t.Fatalf("issued %d + saved %d = %d, want every call accounted (%d)",
			st.Issued, st.Saved(), got, calls.Load())
	}
	if st.Saved() == 0 {
		t.Fatal("overlapping workload produced no cache savings")
	}
	if got := local.Stats().Queries; got != st.Issued {
		t.Fatalf("inner connector saw %d queries, cache issued %d", got, st.Issued)
	}
}

// TestConcurrentStoreAndEvict hammers a small-capacity cache from many
// goroutines so stores, CLOCK evictions and trie updates interleave; the
// invariants are: no panic/race, the byte cap holds once the stores are
// done, the charge accounting stays exact, and answers stay correct.
func TestConcurrentStoreAndEvict(t *testing.T) {
	ds := datagen.IIDBoolean(8, 120, 0.5, 7)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	const max = 16 << 10
	cache := New(formclient.NewLocal(db), Options{MaxBytes: max, Shards: 4})
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				q := hiddendb.EmptyQuery()
				for a := 0; a < 8; a++ {
					if rng.Intn(2) == 0 {
						q = q.With(a, rng.Intn(2))
					}
				}
				got, err := cache.Execute(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := db.Execute(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Overflow != want.Overflow || (!got.Overflow && len(got.Tuples) != len(want.Tuples)) {
					t.Errorf("query %v: got %d tuples overflow=%v, want %d overflow=%v",
						q, len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()

	if b := cache.Bytes(); b > max {
		t.Fatalf("%d charged bytes resident, cap %d", b, max)
	}
	checkCharges(t, cache)
	if cache.CacheStats().Evictions == 0 {
		t.Fatal("workload of ~hundreds of distinct queries never evicted under a 16 KiB cap")
	}
}
