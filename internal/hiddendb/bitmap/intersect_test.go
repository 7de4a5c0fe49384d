package bitmap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// intersectRef computes the reference intersection of sorted slices.
func intersectRef(sets ...[]uint32) []uint32 {
	if len(sets) == 0 {
		return nil
	}
	out := append([]uint32{}, sets[0]...)
	for _, s := range sets[1:] {
		m := make(map[uint32]bool, len(s))
		for _, v := range s {
			m[v] = true
		}
		keep := out[:0]
		for _, v := range out {
			if m[v] {
				keep = append(keep, v)
			}
		}
		out = keep
	}
	return out
}

// collect drains a bitmap into a slice via its iterator.
func collect(b *Bitmap) []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	it := b.Iterator()
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// genSets builds randomized overlapping value sets of the given sizes
// over a shared domain so intersections are non-trivial, with shape
// diversity (some clustered, some uniform).
func genSets(rng *rand.Rand, domain uint32, sizes ...int) ([][]uint32, []*Bitmap) {
	vals := make([][]uint32, len(sizes))
	maps := make([]*Bitmap, len(sizes))
	for i, n := range sizes {
		set := make([]uint32, 0, n)
		if i%2 == 1 {
			// Clustered: runs of consecutive values.
			for len(set) < n {
				start := rng.Uint32() % domain
				for j := uint32(0); j < 64 && len(set) < n; j++ {
					set = append(set, (start+j)%domain)
				}
			}
		} else {
			for j := 0; j < n; j++ {
				set = append(set, rng.Uint32()%domain)
			}
		}
		b, ref := buildBoth(set, i%3 == 0)
		vals[i] = ref
		maps[i] = b
	}
	return vals, maps
}

func buildBoth(vals []uint32, optimize bool) (*Bitmap, []uint32) {
	b := New()
	seen := make(map[uint32]bool, len(vals))
	for _, v := range vals {
		b.Add(v)
		seen[v] = true
	}
	if optimize {
		b.Optimize()
	}
	ref := make([]uint32, 0, len(seen))
	for v := range seen {
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	return b, ref
}

func TestIntersectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]int{
		{1000, 200000},          // sparse × dense
		{5000, 5000},            // balanced
		{300, 40000, 150000},    // three-way
		{100, 100, 100, 100000}, // four-way with tiny seeds
	}
	for ci, sizes := range cases {
		refs, bms := genSets(rng, 1<<21, sizes...)
		want := intersectRef(refs...)
		dst := New()
		got := IntersectInto(dst, bms, 0, true)
		if got != len(want) {
			t.Fatalf("case %d: cardinality %d, want %d", ci, got, len(want))
		}
		vals := collect(dst)
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("case %d: value[%d] = %d, want %d", ci, i, vals[i], want[i])
			}
		}
	}
}

func TestIntersectEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	refs, bms := genSets(rng, 1<<20, 50000, 400000)
	want := intersectRef(refs...)
	if len(want) < 200 {
		t.Fatalf("intersection too small (%d) to exercise early exit", len(want))
	}
	dst := New()
	limit := 101
	got := IntersectInto(dst, bms, limit, false)
	if got < limit {
		t.Fatalf("early exit stopped at %d < limit %d despite %d matches", got, limit, len(want))
	}
	if got > len(want) {
		t.Fatalf("early exit overcounted: %d > true %d", got, len(want))
	}
	// The early-exit result must be a prefix of the full intersection:
	// the smallest values, in order.
	vals := collect(dst)
	for i, v := range vals {
		if v != want[i] {
			t.Fatalf("early-exit result[%d] = %d, want prefix value %d", i, v, want[i])
		}
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a, _ := buildBoth([]uint32{1, 2, 3, 100000}, false)
	b, _ := buildBoth([]uint32{4, 5, 200000}, false)
	dst := New()
	if got := IntersectInto(dst, []*Bitmap{a, b}, 0, true); got != 0 {
		t.Fatalf("disjoint intersection reported %d values", got)
	}
	if !dst.IsEmpty() || len(dst.keys) != 0 {
		t.Fatalf("disjoint intersection left %d containers", len(dst.keys))
	}
}

func TestIntersectReuseDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dst := New()
	for round := 0; round < 5; round++ {
		refs, bms := genSets(rng, 1<<19, 2000, 30000)
		want := intersectRef(refs...)
		got := IntersectInto(dst, bms, 0, true)
		if got != len(want) {
			t.Fatalf("round %d: cardinality %d, want %d", round, got, len(want))
		}
		vals := collect(dst)
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("round %d: stale scratch leaked: value[%d] = %d, want %d", round, i, vals[i], want[i])
			}
		}
	}
}

func TestIntersectAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	_, bms := genSets(rng, 1<<20, 3000, 100000, 250000)
	dst := New()
	IntersectInto(dst, bms, 0, true) // warm dst's container storage
	n := testing.AllocsPerRun(100, func() {
		IntersectInto(dst, bms, 0, true)
	})
	if n != 0 {
		t.Fatalf("steady-state IntersectInto allocated %.1f per call, want 0", n)
	}
}

// foldKind names the container shapes one key's fold pairs: the seed's
// container, which becomes the fold's result, and the other operands'.
type foldKind int

const (
	arrayArray foldKind = iota
	arrayBitmap
	bitmapArray
	arrayRun
	bitmapBitmap // keeps result containers bitmap-shaped between rounds
	numFoldKinds
)

var foldKindNames = [numFoldKinds]string{"array/array", "array/bitmap", "bitmap/array", "array/run", "bitmap/bitmap"}

// foldCards returns the seed's and the other operands' container
// cardinalities for a fold of kind at size ratio r, as close to r as the
// shapes allow: an array holds at most 4096 values, a bitmap more.
func foldCards(kind foldKind, r int) (seed, other int) {
	clamp := func(n, lo, hi int) int { return max(lo, min(n, hi)) }
	switch kind {
	case arrayArray:
		seed = clamp(arrayMaxCard/r, 1, 40)
		return seed, seed * r
	case bitmapArray:
		return 8192, clamp(8192/r, 1, arrayMaxCard)
	case bitmapBitmap:
		return 8192, 30000
	default: // arrayBitmap, arrayRun
		return clamp(8192/r, 1, arrayMaxCard), 8192
	}
}

// chunkVals draws card distinct low values, sorted. Up to half of them
// (at least one) come from share, so folds against share's container
// keep some values; the rest are uniform, or runs of 64 when clustered.
func chunkVals(rng *rand.Rand, card int, share []uint16, clustered bool) []uint16 {
	set := make([]bool, containerSpan)
	n := 0
	put := func(v uint16) {
		if !set[v] {
			set[v] = true
			n++
		}
	}
	if len(share) > 0 {
		for _, i := range rng.Perm(len(share))[:min(len(share), max(1, card/2))] {
			put(share[i])
		}
	}
	for n < card {
		v := uint16(rng.Intn(containerSpan))
		put(v)
		for j := 1; j < 64 && clustered && n < card; j++ {
			put(v + uint16(j))
		}
	}
	out := make([]uint16, 0, card)
	for v, ok := range set {
		if ok {
			out = append(out, uint16(v))
		}
	}
	return out
}

// poisonWords fills every word block dst's containers keep, including
// spare ones, with set bits: a fold that reads its block without clearing
// it first then keeps values it must drop. It also tells the folds apart:
// afterwards a block still solid was never spread into.
func poisonWords(dst *Bitmap) {
	for _, c := range dst.cts[:cap(dst.cts)] {
		if cap(c.words) >= containerWords {
			w := c.words[:containerWords]
			for i := range w {
				w[i] = ^uint64(0)
			}
		}
	}
}

// spreadInto reports whether a fold spread values into c's word block
// since poisonWords.
func spreadInto(c *container) bool {
	if cap(c.words) < containerWords {
		return false
	}
	for _, w := range c.words[:containerWords] {
		if w != ^uint64(0) {
			return true
		}
	}
	return false
}

// TestIntersectFoldSweep checks IntersectInto against intersectRef on
// two- and three-way folds at size ratios around the gallop threshold,
// over every pairing of container shapes the fold kernels handle, with
// needAll and with a limit. One destination serves every round, its word
// blocks poisoned each time, so stale scratch from an earlier round, in
// whatever shape it was left, must never leak into a result. Two-way
// array/array folds must also take the path their ratio calls for: the
// word-block spread up to gallopRatio, the gallop past it.
func TestIntersectFoldSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := []uint16{0, 1, 3}
	dst := New()
	for _, ratio := range []int{1, 8, 63, 64, 65, 1000} {
		for ways := 2; ways <= 3; ways++ {
			for _, needAll := range []bool{true, false} {
				for offset := range int(numFoldKinds) {
					name := fmt.Sprintf("ratio %d, %d-way, needAll %v, offset %d", ratio, ways, needAll, offset)
					sets := make([][]uint32, ways)
					srcs := make([]*Bitmap, ways)
					for s := range srcs {
						srcs[s] = New()
					}
					kinds := make([]foldKind, len(keys))
					cards := make([][2]int, len(keys))
					for ki, key := range keys {
						kind := foldKind((ki + offset) % int(numFoldKinds))
						kinds[ki] = kind
						seedCard, otherCard := foldCards(kind, ratio)
						cards[ki] = [2]int{seedCard, otherCard}
						others := make([][]uint16, ways-1)
						for o := range others {
							others[o] = chunkVals(rng, otherCard, nil, kind == arrayRun)
						}
						chunks := append([][]uint16{chunkVals(rng, seedCard, others[0], false)}, others...)
						for s, chunk := range chunks {
							for _, v := range chunk {
								x := uint32(key)<<16 | uint32(v)
								srcs[s].Add(x)
								sets[s] = append(sets[s], x)
							}
						}
					}
					// A 30000-value chunk the seed lacks keeps it the
					// smallest operand, whatever its own containers hold.
					for s := 1; s < ways; s++ {
						for v := 0; v < 30000; v++ {
							srcs[s].Add(7<<16 | uint32(v))
						}
					}
					for s, b := range srcs {
						b.Optimize()
						for ki, kind := range kinds {
							want := typeArray
							switch {
							case s == 0 && (kind == bitmapArray || kind == bitmapBitmap),
								s > 0 && (kind == arrayBitmap || kind == bitmapBitmap):
								want = typeBitmap
							case s > 0 && kind == arrayRun:
								want = typeRun
							}
							if got := b.cts[ki].typ; got != want {
								t.Fatalf("%s: operand %d key %d (%s) has shape %d, want %d", name, s, keys[ki], foldKindNames[kind], got, want)
							}
						}
					}

					want := intersectRef(sets...)
					limit := 0
					if !needAll {
						limit = max(1, len(want)/2)
					}
					poisonWords(dst)
					got := IntersectInto(dst, srcs, limit, needAll)
					vals := collect(dst)
					if got != len(vals) {
						t.Fatalf("%s: returned %d, holds %d values", name, got, len(vals))
					}
					if needAll && got != len(want) || !needAll && got < min(limit, len(want)) {
						t.Fatalf("%s: cardinality %d, want %d (limit %d)", name, got, len(want), limit)
					}
					for i, v := range vals {
						if i >= len(want) || v != want[i] {
							t.Fatalf("%s: value[%d] = %d, not the reference's", name, i, v)
						}
					}
					if ways != 2 {
						continue
					}
					for ci := range dst.keys {
						ki := sort.Search(len(keys), func(i int) bool { return keys[i] >= dst.keys[ci] })
						if kinds[ki] != arrayArray {
							continue
						}
						small, large := cards[ki][0], cards[ki][1]
						if wantSpread := large <= gallopRatio*small; spreadInto(&dst.cts[ci]) != wantSpread {
							t.Fatalf("%s: array/array fold of %d against %d values: spread %v, want %v",
								name, small, large, !wantSpread, wantSpread)
						}
					}
				}
			}
		}
	}
}
