package bitmap

import "math/bits"

// IntersectInto writes the intersection of srcs into dst and returns the
// resulting cardinality. dst is Reset first and its container storage is
// reused, so a pooled dst makes steady-state intersections allocation
// free. srcs must be non-empty and must not contain dst; the slice is
// reordered in place by ascending cardinality (the lowest-cardinality
// list seeds the scan, the cheapest order for conjunctive queries).
//
// When needAll is false and limit > 0 the scan stops as soon as dst
// holds at least limit values; because containers are processed in
// ascending key order, dst then holds the smallest limit-or-more values
// of the intersection — exactly the top-k prefix when values are rank
// positions. With needAll true the full intersection (and therefore the
// exact COUNT, as dst's cardinality) is computed.
func IntersectInto(dst *Bitmap, srcs []*Bitmap, limit int, needAll bool) int {
	dst.Reset()
	orderByCard(srcs)
	cur := dst.cur[:0]
	for range srcs {
		cur = append(cur, 0)
	}
	dst.cur = cur
	intersectSeedRange(dst, srcs, 0, len(srcs[0].cts), cur, limit, needAll)
	return int(dst.card)
}

// orderByCard sorts bitmaps by ascending cardinality in place. The list
// is tiny (one entry per query predicate), so insertion sort avoids the
// sort.Slice closure.
func orderByCard(srcs []*Bitmap) {
	if len(srcs) == 0 {
		panic("bitmap: intersection of no bitmaps")
	}
	for i := 1; i < len(srcs); i++ {
		for j := i; j > 0 && srcs[j].card < srcs[j-1].card; j-- {
			srcs[j], srcs[j-1] = srcs[j-1], srcs[j]
		}
	}
}

// intersectSeedRange intersects seed (srcs[0]) containers [lo, hi) with
// the other sources, appending result containers to dst. cur holds one
// key cursor per source; cursors only move forward, so the whole scan
// over the key space is linear. Honors the limit/needAll early-exit
// contract of IntersectInto.
func intersectSeedRange(dst *Bitmap, srcs []*Bitmap, lo, hi int, cur []int, limit int, needAll bool) {
	seed := srcs[0]
outer:
	for ci := lo; ci < hi; ci++ {
		key := seed.keys[ci]
		for s := 1; s < len(srcs); s++ {
			ks := srcs[s].keys
			k := gallopKeys(ks, cur[s], key)
			cur[s] = k
			if k == len(ks) {
				break outer // source exhausted: no later key can match
			}
			if ks[k] != key {
				continue outer
			}
		}
		d := dst.appendContainer(key)
		d.copyFrom(&seed.cts[ci])
		for s := 1; s < len(srcs); s++ {
			d.foldAnd(&srcs[s].cts[cur[s]])
			if d.card == 0 {
				break
			}
		}
		if d.card == 0 {
			// Roll the empty container back off the tail.
			dst.keys = dst.keys[:len(dst.keys)-1]
			dst.cts = dst.cts[:len(dst.cts)-1]
			continue
		}
		dst.card += int64(d.card)
		if !needAll && limit > 0 && dst.card >= int64(limit) {
			return
		}
	}
}

// gallopKeys returns the smallest index i in [lo, len(keys)] with
// keys[i] >= x: exponential probe then binary search, so advancing a
// forward-only cursor costs O(log gap).
func gallopKeys(keys []uint16, lo int, x uint16) int {
	if lo >= len(keys) || keys[lo] >= x {
		return lo
	}
	step := 1
	for lo+step < len(keys) && keys[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(keys) {
		hi = len(keys)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// copyFrom loads src's values into c, reusing c's storage. Run sources
// are materialized to array or bitmap shape so the fold kernels only
// ever mutate those two.
func (c *container) copyFrom(src *container) {
	c.card = src.card
	switch src.typ {
	case typeArray:
		c.typ = typeArray
		c.arr = append(c.arr[:0], src.arr...)
	case typeBitmap:
		c.typ = typeBitmap
		c.words = append(c.words[:0], src.words...)
	default: // typeRun
		if src.card <= arrayMaxCard {
			c.typ = typeArray
			arr := c.arr[:0]
			for _, r := range src.runs {
				for v := uint32(r.Start); v <= uint32(r.Last); v++ {
					arr = append(arr, uint16(v))
				}
			}
			c.arr = arr
		} else {
			c.typ = typeBitmap
			c.ensureWords()
			for _, r := range src.runs {
				setRange(c.words, r.Start, r.Last)
			}
		}
	}
}

// foldAnd intersects o into c in place. c is array or bitmap shaped
// (copyFrom's invariant); o may be any shape.
func (c *container) foldAnd(o *container) {
	if c.typ == typeArray {
		c.foldAndArray(o)
		return
	}
	c.foldAndBitmap(o)
}

// gallopRatio is the operand size ratio past which an array∩array fold
// gallops the larger array instead of spreading it into a word block.
// Spreading touches every value of both arrays; galloping touches each
// value of the smaller one and O(log gap) of the larger. Roaring switches
// algorithms at the same ratio.
const gallopRatio = 64

// foldAndArray filters c.arr (sorted) down to the values o contains.
func (c *container) foldAndArray(o *container) {
	arr := c.arr
	var n int
	switch o.typ {
	case typeArray:
		if len(o.arr) > gallopRatio*len(arr) {
			n = gallopFilter(arr, o.arr)
		} else {
			n = filterByWords(arr, c.spread(o.arr))
		}
	case typeBitmap:
		n = filterByWords(arr, (*[containerWords]uint64)(o.words))
	default: // typeRun
		k := 0
		for _, v := range arr {
			for k < len(o.runs) && o.runs[k].Last < v {
				k++
			}
			if k == len(o.runs) {
				break
			}
			if o.runs[k].Start <= v {
				arr[n] = v
				n++
			}
		}
	}
	c.arr = arr[:n]
	c.card = int32(n)
}

// gallopFilter keeps the values of arr that ob (sorted, much larger)
// contains, writing them in place, and returns how many it kept. It
// gallops ob from a monotone cursor.
func gallopFilter(arr, ob []uint16) int {
	n, k := 0, 0
	for _, v := range arr {
		k = gallopKeys(ob, k, v)
		if k == len(ob) {
			break
		}
		if ob[k] == v {
			arr[n] = v
			n++
		}
	}
	return n
}

// spread sets vals' bits in c's word block, which an array container
// does not use, after clearing it, and returns the block.
func (c *container) spread(vals []uint16) *[containerWords]uint64 {
	if cap(c.words) < containerWords {
		c.words = make([]uint64, 0, containerWords)
	}
	words := (*[containerWords]uint64)(c.words[:containerWords])
	clear(words[:])
	for _, v := range vals {
		words[v>>6] |= uint64(1) << (v & 63)
	}
	return words
}

// filterByWords keeps the values of arr whose bits are set in words,
// writing them in place, and returns how many it kept. It never branches
// on a probe: every value is written, and the write cursor advances by
// the value's bit, so a membership test the CPU cannot predict costs no
// misprediction. Four probes are loaded ahead of their writes, so the
// loads do not wait on the cursor.
func filterByWords(arr []uint16, words *[containerWords]uint64) int {
	bit := func(v uint16) int { return int(words[v>>6] >> (v & 63) & 1) }
	n, i := 0, 0
	for ; i+4 <= len(arr); i += 4 {
		v0, v1, v2, v3 := arr[i], arr[i+1], arr[i+2], arr[i+3]
		b0, b1, b2, b3 := bit(v0), bit(v1), bit(v2), bit(v3)
		arr[n] = v0
		n += b0
		arr[n] = v1
		n += b1
		arr[n] = v2
		n += b2
		arr[n] = v3
		n += b3
	}
	for _, v := range arr[i:] {
		arr[n] = v
		n += bit(v)
	}
	return n
}

// foldAndBitmap intersects into c's word block. An array operand flips
// the result to array shape (it can only shrink to the operand's size).
func (c *container) foldAndBitmap(o *container) {
	switch o.typ {
	case typeArray:
		arr := append(c.arr[:0], o.arr...)
		n := filterByWords(arr, (*[containerWords]uint64)(c.words))
		c.typ = typeArray
		c.arr = arr[:n]
		c.card = int32(n)
		c.words = c.words[:0]
	case typeBitmap:
		c.card = andWords(c.words, o.words)
	default: // typeRun
		c.card = maskWordsToRuns(c.words, o.runs)
	}
}

// andWords is the word-level AND kernel: a &= b across the 1024-word
// block, returning the surviving cardinality via bits.OnesCount64.
func andWords(a, b []uint64) int32 {
	a = a[:containerWords]
	b = b[:containerWords]
	var card int32
	for i := range a {
		a[i] &= b[i]
		card += int32(bits.OnesCount64(a[i]))
	}
	return card
}

// maskWordsToRuns clears every bit of words outside runs (sorted,
// non-overlapping), returning the surviving cardinality. It walks words
// and runs in one pass.
func maskWordsToRuns(words []uint64, runs []interval) int32 {
	words = words[:containerWords]
	var card int32
	k := 0
	for w := 0; w < containerWords; w++ {
		if words[w] == 0 {
			continue
		}
		base := uint32(w << 6)
		var mask uint64
		for k < len(runs) && uint32(runs[k].Last) < base {
			k++
		}
		for j := k; j < len(runs); j++ {
			r := runs[j]
			if uint32(r.Start) > base+63 {
				break
			}
			lo, hi := uint32(r.Start), uint32(r.Last)
			if lo < base {
				lo = base
			}
			if hi > base+63 {
				hi = base + 63
			}
			m := (^uint64(0) << (lo - base))
			if hi-base < 63 {
				m &= ^uint64(0) >> (63 - (hi - base))
			}
			mask |= m
		}
		words[w] &= mask
		card += int32(bits.OnesCount64(words[w]))
	}
	return card
}
