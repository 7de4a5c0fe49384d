package bitmap

import (
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
		if c := AndCardinality(New(), bms); c != len(want) {
			t.Fatalf("case %d: AndCardinality %d, want %d", ci, c, len(want))
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

func TestOrAndNot(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 4; round++ {
		refs, bms := genSets(rng, 1<<19, 4000+round*10000, 50000)
		ra, rb := refs[0], refs[1]
		inB := make(map[uint32]bool, len(rb))
		for _, v := range rb {
			inB[v] = true
		}
		union := append([]uint32{}, ra...)
		for _, v := range rb {
			if !containsSorted(ra, v) {
				union = append(union, v)
			}
		}
		sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
		diff := make([]uint32, 0, len(ra))
		for _, v := range ra {
			if !inB[v] {
				diff = append(diff, v)
			}
		}

		dst := New()
		if got := Or(dst, bms[0], bms[1]); got != len(union) {
			t.Fatalf("round %d: Or cardinality %d, want %d", round, got, len(union))
		}
		if vals := collect(dst); !equalU32(vals, union) {
			t.Fatalf("round %d: Or contents diverge", round)
		}
		if got := AndNot(dst, bms[0], bms[1]); got != len(diff) {
			t.Fatalf("round %d: AndNot cardinality %d, want %d", round, got, len(diff))
		}
		if vals := collect(dst); !equalU32(vals, diff) {
			t.Fatalf("round %d: AndNot contents diverge", round)
		}
	}
}

func containsSorted(s []uint32, v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
