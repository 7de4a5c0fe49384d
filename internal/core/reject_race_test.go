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

// Same contract for the adaptive variant: calibration and the frozen
// phase both run concurrently.
func TestAdaptiveRejectorSharedAcrossGoroutines(t *testing.T) {
	r := NewAdaptiveRejector(0.5, 64, 2)
	const (
		workers = 8
		each    = 1000
	)
	var accepted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var acc, rej int64
			for i := 0; i < each; i++ {
				reach := float64(i%100+1) / 100
				if r.Accept(&Candidate{Reach: reach}) {
					acc++
				} else {
					rej++
				}
			}
			mu.Lock()
			accepted += acc
			rejected += rej
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if accepted+rejected != workers*each {
		t.Fatalf("accounted %d candidates, want %d", accepted+rejected, workers*each)
	}
	if r.Calibrating() {
		t.Fatal("warmup of 64 never completed over 8000 candidates")
	}
	if c := r.C(); c <= 0 || c > 1 {
		t.Fatalf("frozen C = %g out of range", c)
	}
	if accepted == 0 {
		t.Fatal("no candidate accepted after calibration")
	}
}
