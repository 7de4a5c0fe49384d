package queryexec

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// LimiterOptions tunes a Limiter.
type LimiterOptions struct {
	// MaxInFlight is the fixed concurrency cap: at most this many queries
	// run through the connector at once. 0 disables the cap (the limiter
	// still meters rate and counts in-flight queries).
	MaxInFlight int
	// RatePerSec caps the aggregate query rate of every goroutine sharing
	// the limiter — the per-host politeness budget. The meter admits one
	// token per query; the connector's retries and a paginated answer's
	// later pages ride on that admission. Unlike a per-goroutine delay,
	// the cap bounds the sum: N workers together never exceed it. 0
	// disables rate metering.
	RatePerSec float64
	// Burst is the rate meter's token bucket capacity (default 10).
	Burst int
	// Now and Sleep let tests control time; they default to time.Now and a
	// context-aware sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// Limiter is the shared per-host admission controller of the execution
// layer: a fixed concurrency cap combined with an aggregate rate meter.
// Every goroutine hitting one host shares one Limiter, so the site
// observes a bounded request stream no matter how many replicas or jobs
// run concurrently. A nil *Limiter is valid and admits everything.
type Limiter struct {
	opts LimiterOptions

	slots    chan struct{} // one buffered slot per admitted query; nil without a cap
	inflight atomic.Int64

	mu     sync.Mutex
	tokens float64 // rate meter (reservation style: may go negative)
	last   time.Time

	waits atomic.Int64 // acquisitions the rate meter had to delay
}

// NewLimiter builds a limiter; see LimiterOptions for the knobs.
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	l := &Limiter{opts: opts, tokens: float64(opts.Burst)}
	if opts.MaxInFlight > 0 {
		l.slots = make(chan struct{}, opts.MaxInFlight)
	}
	return l
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Acquire admits one query: it blocks while the cap is full, then sleeps
// off any rate-meter debt. Waiters on a full cap are admitted in arrival
// order. Every successful Acquire must be paired with a Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	if l.slots != nil {
		select {
		case l.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	l.inflight.Add(1)
	if debt := l.reserve(); debt > 0 {
		l.waits.Add(1)
		if err := l.opts.Sleep(ctx, debt); err != nil {
			// The unsent query's slot frees, but its rate reservation
			// stands: the next caller still waits its turn, keeping the
			// meter conservative under cancellation storms.
			l.Release()
			return err
		}
	}
	return nil
}

// reserve takes one token from the rate meter and returns the debt the
// caller must sleep off (0 without a rate cap).
func (l *Limiter) reserve() time.Duration {
	if l.opts.RatePerSec <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.opts.Now()
	if !l.last.IsZero() {
		l.tokens += now.Sub(l.last).Seconds() * l.opts.RatePerSec
		if l.tokens > float64(l.opts.Burst) {
			l.tokens = float64(l.opts.Burst)
		}
	}
	l.last = now
	l.tokens--
	if l.tokens >= 0 {
		return 0
	}
	return time.Duration(-l.tokens / l.opts.RatePerSec * float64(time.Second))
}

// Release returns an admitted query's slot.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	l.inflight.Add(-1)
	if l.slots != nil {
		<-l.slots
	}
}

// InFlight returns the number of admitted, unreleased queries.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return int(l.inflight.Load())
}

// Waits returns how many acquisitions the rate meter delayed.
func (l *Limiter) Waits() int64 {
	if l == nil {
		return 0
	}
	return l.waits.Load()
}
