package main

import (
	"fmt"
	"slices"

	"hdsampler/internal/hiddendb"
)

// rowIndex answers "is this a row of the target dataset?" by value: a
// sorted set of 64-bit hashes of every row's attribute values.
type rowIndex struct {
	arity  int
	hashes []uint64
}

func newRowIndex(schema *hiddendb.Schema, tuples []hiddendb.Tuple) *rowIndex {
	ix := &rowIndex{arity: schema.NumAttrs(), hashes: make([]uint64, len(tuples))}
	for i := range tuples {
		ix.hashes[i] = hashVals(tuples[i].Vals)
	}
	slices.Sort(ix.hashes)
	return ix
}

// hashVals is FNV-1a over the value indexes.
func hashVals(vals []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		x := uint64(v)
		for b := 0; b < 8; b++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// contains reports whether vals is a row of the dataset.
func (ix *rowIndex) contains(vals []int) bool {
	if len(vals) != ix.arity {
		return false
	}
	_, ok := slices.BinarySearch(ix.hashes, hashVals(vals))
	return ok
}

// checkSamples is the per-job output check: exactly n samples, each one a
// row of the target dataset.
func (ix *rowIndex) checkSamples(tuples []hiddendb.Tuple, n int) error {
	if len(tuples) != n {
		return fmt.Errorf("job returned %d samples, want %d", len(tuples), n)
	}
	for i := range tuples {
		if !ix.contains(tuples[i].Vals) {
			return fmt.Errorf("sample %d %v is not a row of the target dataset", i, tuples[i].Vals)
		}
	}
	return nil
}
