package hiddendb_test

import (
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// BenchmarkExecuteIntersectBackends compares the posting backends head
// to head at 10M tuples under exact counts (full-intersection mode,
// where representation matters most): the sorted-slice reference and
// the bitmap backend on the same two-predicate query. Skipped under
// -short; the nightly workflow runs it at full size. This file is an external test
// package because datagen itself imports hiddendb.
func BenchmarkExecuteIntersectBackends(b *testing.B) {
	const n = 10_000_000
	cases := []struct {
		name  string
		cfg   hiddendb.Config
		preds []hiddendb.Predicate
	}{
		{"sorted-10M",
			hiddendb.Config{K: 100, CountMode: hiddendb.CountExact, Postings: hiddendb.PostingsSorted},
			[]hiddendb.Predicate{{Attr: 0, Value: 0}, {Attr: 1, Value: 0}}},
		{"bitmap-10M",
			hiddendb.Config{K: 100, CountMode: hiddendb.CountExact},
			[]hiddendb.Predicate{{Attr: 0, Value: 0}, {Attr: 1, Value: 0}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			if testing.Short() {
				b.Skip("10M-tuple build skipped under -short")
			}
			ds := datagen.NewHuge(n, 1).Dataset()
			db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			q := hiddendb.MustQuery(tc.preds...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Count <= 0 {
					b.Fatal("missing exact count")
				}
			}
		})
	}
}
