package bitmap_test

import (
	"testing"

	"hdsampler/internal/hiddendb/bitmap"
)

// skewRow returns row i of the skewed benchmark shape: rare (100 values,
// ~1% each), common (value 0 for ~95% of rows) and mid (4 uniform
// values). Values are a pure function of the index through the
// splitmix64 finalizer, so the shape needs no RNG state.
func skewRow(i int) (rare, common, mid int) {
	x := splitmix64(1 ^ uint64(i))
	if (x>>32)%20 == 19 {
		common = 1 // the 5% minority
	}
	return int(x % 100), common, int((x >> 16) % 4)
}

// splitmix64 is the splitmix64 finalizer, a bijective avalanche mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// skewBitmaps builds the posting bitmaps of rare=0, common=0 and mid=0
// (~1%, ~95% and ~25% selectivity) over the first n rows of the shape.
func skewBitmaps(n int) []*bitmap.Bitmap {
	rare, common, mid := bitmap.New(), bitmap.New(), bitmap.New()
	for i := 0; i < n; i++ {
		r, c, m := skewRow(i)
		if r == 0 {
			rare.Add(uint32(i))
		}
		if c == 0 {
			common.Add(uint32(i))
		}
		if m == 0 {
			mid.Add(uint32(i))
		}
	}
	srcs := []*bitmap.Bitmap{rare, common, mid}
	for _, b := range srcs {
		b.Optimize()
	}
	return srcs
}

// TestBitmapIntersectFixture pins the data BenchmarkBitmapIntersect/1M
// measures, so its checked-in baseline stays comparable across changes.
func TestBitmapIntersectFixture(t *testing.T) {
	srcs := skewBitmaps(1_000_000)
	for i, want := range []int{10_078, 949_890, 248_963} {
		if got := srcs[i].Cardinality(); got != want {
			t.Errorf("posting %d has %d values, want %d", i, got, want)
		}
	}
	if got := bitmap.IntersectInto(bitmap.New(), srcs, 0, true); got != 2_351 {
		t.Errorf("three-way intersection has %d values, want 2351", got)
	}
}

// BenchmarkBitmapIntersect measures the full three-way intersection
// kernel (exact-count mode: no early exit) over 1M rows of the skew
// shape.
func BenchmarkBitmapIntersect(b *testing.B) {
	b.Run("1M", func(b *testing.B) {
		srcs := skewBitmaps(1_000_000)
		dst := bitmap.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c := bitmap.IntersectInto(dst, srcs, 0, true); c == 0 {
				b.Fatal("empty intersection")
			}
		}
	})
}
