package bitmap

import "math/bits"

// Iterator streams a bitmap's values in ascending order. It is a value
// type: obtain one with Bitmap.Iterator, keep it on the stack, and call
// Next until ok is false — the loop allocates nothing. Mutating the
// bitmap invalidates the iterator.
type Iterator struct {
	b  *Bitmap
	ci int // current container
	// array / run progress
	ai int
	// run offset within runs[ai]
	ro uint32
	// bitmap progress: next word index and the current word's remaining bits
	wi   int
	word uint64
}

// Iterator returns an iterator positioned before the first value.
func (b *Bitmap) Iterator() Iterator {
	return Iterator{b: b}
}

// Next returns the next value in ascending order.
func (it *Iterator) Next() (uint32, bool) {
	for it.ci < len(it.b.cts) {
		c := &it.b.cts[it.ci]
		base := uint32(it.b.keys[it.ci]) << 16
		switch c.typ {
		case typeArray:
			if it.ai < len(c.arr) {
				v := base | uint32(c.arr[it.ai])
				it.ai++
				return v, true
			}
		case typeBitmap:
			for {
				if it.word != 0 {
					tz := bits.TrailingZeros64(it.word)
					it.word &= it.word - 1
					return base | uint32((it.wi-1)<<6+tz), true
				}
				if it.wi >= containerWords {
					break
				}
				it.word = c.words[it.wi]
				it.wi++
			}
		default: // typeRun
			if it.ai < len(c.runs) {
				r := c.runs[it.ai]
				v := base | (uint32(r.Start) + it.ro)
				if uint32(r.Start)+it.ro >= uint32(r.Last) {
					it.ai++
					it.ro = 0
				} else {
					it.ro++
				}
				return v, true
			}
		}
		it.ci++
		it.ai, it.ro, it.wi, it.word = 0, 0, 0, 0
	}
	return 0, false
}

// Select returns the i-th smallest value (0-based) and whether i is in
// range. Cost is O(#containers) to find the chunk plus O(words) within
// a bitmap container — the random-tuple accessor that keeps uniform
// selection over a posting list logarithmic-ish rather than a full scan.
func (b *Bitmap) Select(i int) (uint32, bool) {
	if i < 0 || int64(i) >= b.card {
		return 0, false
	}
	rem := int32(i)
	for ci := range b.cts {
		c := &b.cts[ci]
		if rem >= c.card {
			rem -= c.card
			continue
		}
		base := uint32(b.keys[ci]) << 16
		switch c.typ {
		case typeArray:
			return base | uint32(c.arr[rem]), true
		case typeBitmap:
			for w := 0; w < containerWords; w++ {
				n := int32(bits.OnesCount64(c.words[w]))
				if rem >= n {
					rem -= n
					continue
				}
				return base | uint32(w<<6+selectInWord(c.words[w], int(rem))), true
			}
		default: // typeRun
			for _, r := range c.runs {
				n := int32(r.Last-r.Start) + 1
				if rem >= n {
					rem -= n
					continue
				}
				return base | (uint32(r.Start) + uint32(rem)), true
			}
		}
	}
	return 0, false // unreachable while card is consistent
}

// selectInWord returns the position of the i-th set bit (0-based) of w.
func selectInWord(w uint64, i int) int {
	for ; i > 0; i-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// Rank returns the number of values strictly less than x, so
// Select(Rank(x)) == x whenever x is in the set.
func (b *Bitmap) Rank(x uint32) int {
	key := uint16(x >> 16)
	low := uint16(x)
	rank := 0
	for ci := range b.cts {
		if b.keys[ci] > key {
			break
		}
		c := &b.cts[ci]
		if b.keys[ci] < key {
			rank += int(c.card)
			continue
		}
		switch c.typ {
		case typeArray:
			for _, v := range c.arr {
				if v >= low {
					break
				}
				rank++
			}
		case typeBitmap:
			w := int(low >> 6)
			for i := 0; i < w; i++ {
				rank += bits.OnesCount64(c.words[i])
			}
			rank += bits.OnesCount64(c.words[w] & (uint64(1)<<(low&63) - 1))
		default: // typeRun
			for _, r := range c.runs {
				if uint16(r.Start) >= low {
					break
				}
				if r.Last < low {
					rank += int(r.Last-r.Start) + 1
				} else {
					rank += int(low - r.Start)
				}
			}
		}
		break
	}
	return rank
}
