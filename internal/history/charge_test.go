package history

import (
	"math/rand"
	"runtime"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// TestChargeMatchesHeap calibrates entry.charge against the heap: for each
// entry shape, storing ~10k entries grows the live heap by their charged
// bytes to within ±25%. Queries are walk-like (a random row's values on a
// random 2–5 attributes) and rows are laid out as the HTML connector
// decodes them, one value slab and one numeric slab per answer.
func TestChargeMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; heap growth measured without -race")
	}
	ds := datagen.Vehicles(20_000, 1)
	m := ds.Schema.NumAttrs()
	for _, shape := range []struct {
		name     string
		overflow bool
		rows     int
	}{
		{"overflow flag", true, 0},
		{"empty answer", false, 0},
		{"complete answer", false, 37},
		{"overflow with wanted rows", true, 100},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			cache := New(nil, Options{})
			before := liveHeap()
			for i := 0; i < 10_000; i++ {
				row := ds.Tuples[rng.Intn(len(ds.Tuples))].Vals
				q := hiddendb.EmptyQuery()
				for _, a := range rng.Perm(m)[:2+rng.Intn(4)] {
					q = q.With(a, row[a])
				}
				res := &hiddendb.Result{Overflow: shape.overflow, Count: hiddendb.CountAbsent}
				if shape.rows > 0 {
					res.Tuples = decodedRows(ds, rng, shape.rows)
				}
				cache.store(q, res, shape.rows > 0)
			}
			grown := liveHeap() - before
			ratio := float64(cache.Bytes()) / float64(grown)
			t.Logf("%d entries charged %d bytes, heap grew %d (ratio %.3f)", cache.Len(), cache.Bytes(), grown, ratio)
			if ratio < 0.75 || ratio > 1.25 {
				t.Fatalf("charged %d bytes for %d entries, heap grew %d: ratio %.2f, want within ±25%%",
					cache.Bytes(), cache.Len(), grown, ratio)
			}
			runtime.KeepAlive(cache)
		})
	}
}

// decodedRows copies n random rows into fresh slabs, the way the HTML
// connector lays out a decoded result page.
func decodedRows(ds *datagen.Dataset, rng *rand.Rand, n int) []hiddendb.Tuple {
	m := ds.Schema.NumAttrs()
	vals := make([]int, n*m)
	nums := make([]float64, n*m)
	out := make([]hiddendb.Tuple, n)
	for i := range out {
		src := ds.Tuples[rng.Intn(len(ds.Tuples))]
		copy(vals[i*m:], src.Vals)
		copy(nums[i*m:], src.Nums)
		out[i] = hiddendb.Tuple{ID: src.ID, Vals: vals[i*m : (i+1)*m : (i+1)*m], Nums: nums[i*m : (i+1)*m : (i+1)*m]}
	}
	return out
}

// liveHeap returns the heap's live bytes after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
