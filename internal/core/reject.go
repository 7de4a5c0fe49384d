package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"hdsampler/internal/hiddendb"
)

// Rejector is the Sample Processor of the demo's architecture: it applies
// acceptance/rejection to candidate samples so that every tuple's final
// selection probability is min(reach, C). C — the target reach
// probability — is the efficiency↔skew knob:
//
//   - C below every tuple's reach probability yields provably uniform
//     samples at the price of many rejections;
//   - C = 1 accepts every candidate, keeping the walk's raw skew but
//     wasting no queries.
//
// The demo exposes this choice as a slider (§3.1); SliderC maps the slider
// position onto C.
//
// A Rejector is safe for concurrent use: replica pools and draw loops
// sharing one acceptor may call Accept from many goroutines. C must not
// be mutated after construction.
type Rejector struct {
	// C is the target reach probability; treat as immutable once built.
	C float64

	mu  sync.Mutex // guards rng (math/rand.Rand is not concurrency-safe)
	rng *rand.Rand

	accepted atomic.Int64
	rejected atomic.Int64
}

// NewRejector builds a processor with the given target reach probability.
// C <= 0 or C >= 1 accepts everything.
func NewRejector(c float64, seed int64) *Rejector {
	return &Rejector{C: c, rng: rand.New(rand.NewSource(seed))}
}

// AcceptProb returns the probability with which a candidate of the given
// reach is accepted: min(1, C/reach).
func (r *Rejector) AcceptProb(reach float64) float64 {
	if r == nil || r.C <= 0 || r.C >= 1 {
		return 1
	}
	if reach <= 0 {
		return 0
	}
	return math.Min(1, r.C/reach)
}

// Accept decides one candidate's fate. A nil Rejector accepts everything
// (the brute-force path, whose candidates are already uniform). Safe to
// call from multiple goroutines sharing one acceptor.
func (r *Rejector) Accept(c *Candidate) bool {
	if r == nil {
		return true
	}
	p := r.AcceptProb(c.Reach)
	ok := p >= 1
	if !ok {
		r.mu.Lock()
		ok = r.rng.Float64() < p
		r.mu.Unlock()
	}
	if ok {
		r.accepted.Add(1)
	} else {
		r.rejected.Add(1)
	}
	return ok
}

// Counts returns how many candidates were accepted and rejected.
func (r *Rejector) Counts() (accepted, rejected int64) {
	if r == nil {
		return 0, 0
	}
	return r.accepted.Load(), r.rejected.Load()
}

// SliderC maps the demo's efficiency↔skew slider position s ∈ [0,1] onto a
// target reach probability, log-linearly between the conservative uniform
// bound 1/(|space|·k) (s = 0: lowest skew, most rejections) and 1 (s = 1:
// highest efficiency, no rejections). attrs may be nil for the full
// attribute set.
func SliderC(schema *hiddendb.Schema, attrs []int, k int, s float64) float64 {
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	scoped, err := resolveAttrs(schema, attrs)
	if err != nil {
		scoped = nil
		for i := 0; i < schema.NumAttrs(); i++ {
			scoped = append(scoped, i)
		}
	}
	if k < 1 {
		k = 1
	}
	space := subspaceSize(schema, scoped)
	logCmin := -math.Log(space * float64(k))
	return math.Exp(logCmin * (1 - s))
}
