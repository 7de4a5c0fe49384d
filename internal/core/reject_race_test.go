package core

import (
	"sync"
	"testing"
)

// Shared-acceptor regression: DrawParallel/ReplicaSet give every replica
// its own seeded acceptor, but the jobsvc worker pools and any caller
// wiring one Acceptor into several draw loops must be able to share one
// safely. Run under -race, this test fails loudly if Accept's counters or
// rng lose their synchronization again.
func TestRejectorSharedAcrossGoroutines(t *testing.T) {
	r := NewRejector(0.5, 1)
	const (
		workers = 8
		each    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Alternate certain accepts (reach below C) with coin
				// flips (reach above C) so both paths interleave.
				reach := 0.25
				if i%2 == 1 {
					reach = 0.9
				}
				r.Accept(&Candidate{Reach: reach})
			}
		}(w)
	}
	wg.Wait()
	acc, rej := r.Counts()
	if acc+rej != workers*each {
		t.Fatalf("accepted %d + rejected %d = %d, want %d (lost updates)",
			acc, rej, acc+rej, workers*each)
	}
	// Half the candidates were certain accepts; the coin-flip half
	// accepts with probability 5/9 ≈ 0.56, so rejections must exist but
	// stay well under half of the total.
	if rej == 0 || rej >= workers*each/2 {
		t.Fatalf("rejected %d of %d: acceptance logic drifted under concurrency", rej, workers*each)
	}
}
