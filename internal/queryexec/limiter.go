package queryexec

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// LimiterOptions tunes a Limiter.
type LimiterOptions struct {
	// MaxInFlight is the AIMD concurrency ceiling: at most this many wire
	// requests run at once, and the adaptive window never grows past it.
	// 0 disables concurrency limiting (the limiter still meters rate and
	// tracks in-flight counts).
	MaxInFlight int
	// RatePerSec caps the aggregate wire request rate of every goroutine
	// sharing the limiter — the per-host politeness budget. Unlike a
	// per-goroutine delay, the cap bounds the sum: N workers together
	// never exceed it. 0 disables rate metering.
	RatePerSec float64
	// Burst is the rate meter's token bucket capacity (default 10).
	Burst int
	// Now and Sleep let tests control time; they default to time.Now and a
	// context-aware sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// The AIMD window's multiplicative decrease: on rate-limit pushback the
// window halves, but never below one request in flight.
const (
	backoff     = 0.5
	minInFlight = 1
)

// Limiter is the shared per-host admission controller of the execution
// layer: an AIMD concurrency window (additive increase per clean request,
// multiplicative decrease on 429 pushback) combined with an aggregate
// rate meter. Every goroutine hitting one host shares one Limiter, so the
// site observes a bounded request stream no matter how many replicas or
// jobs run concurrently. A nil *Limiter is valid and admits everything.
type Limiter struct {
	opts LimiterOptions

	mu       sync.Mutex
	limit    float64 // current AIMD window
	inflight int
	waitq    []chan struct{} // FIFO of admission waiters
	tokens   float64         // rate meter (reservation style: may go negative)
	last     time.Time

	waits    atomic.Int64 // acquisitions the rate meter had to delay
	backoffs atomic.Int64 // multiplicative decreases (congestion events)
}

// NewLimiter builds a limiter; see LimiterOptions for the knobs. The AIMD
// window starts at the ceiling and backs off on pushback.
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
	l := &Limiter{opts: opts, limit: float64(opts.MaxInFlight)}
	l.tokens = float64(opts.Burst)
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

// Acquire admits one wire request: it blocks while the AIMD window is
// full, then sleeps off any rate-meter debt. Every successful Acquire
// must be paired with a Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	for l.opts.MaxInFlight > 0 && float64(l.inflight) >= l.limit {
		ch := make(chan struct{})
		l.waitq = append(l.waitq, ch)
		l.mu.Unlock()
		select {
		case <-ch:
			l.mu.Lock()
		case <-ctx.Done():
			l.mu.Lock()
			l.dropWaiter(ch)
			l.mu.Unlock()
			return ctx.Err()
		}
	}
	l.inflight++
	var debt time.Duration
	if l.opts.RatePerSec > 0 {
		now := l.opts.Now()
		if !l.last.IsZero() {
			l.tokens += now.Sub(l.last).Seconds() * l.opts.RatePerSec
			if l.tokens > float64(l.opts.Burst) {
				l.tokens = float64(l.opts.Burst)
			}
		}
		l.last = now
		l.tokens--
		if l.tokens < 0 {
			debt = time.Duration(-l.tokens / l.opts.RatePerSec * float64(time.Second))
		}
	}
	l.mu.Unlock()
	if debt > 0 {
		l.waits.Add(1)
		if err := l.opts.Sleep(ctx, debt); err != nil {
			// The unsent request's slot frees, but its rate reservation
			// stands: the next caller still waits its turn, keeping the
			// meter conservative under cancellation storms.
			l.mu.Lock()
			l.inflight--
			l.wakeLocked()
			l.mu.Unlock()
			return err
		}
	}
	return nil
}

// dropWaiter removes a cancelled admission waiter; if its slot was already
// granted, the grant passes to the next waiter. Caller holds l.mu.
func (l *Limiter) dropWaiter(ch chan struct{}) {
	for i, w := range l.waitq {
		if w == ch {
			l.waitq = append(l.waitq[:i], l.waitq[i+1:]...)
			return
		}
	}
	// Not queued anymore: the grant raced the cancellation. Hand it on.
	l.wakeLocked()
}

// Release returns a slot and feeds the AIMD controller: ok means the wire
// interaction saw no rate-limit pushback (additive increase); !ok records
// congestion (multiplicative decrease).
func (l *Limiter) Release(ok bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.inflight--
	if l.opts.MaxInFlight > 0 {
		if ok {
			l.limit += 1 / l.limit // +1 per window of clean requests
			if l.limit > float64(l.opts.MaxInFlight) {
				l.limit = float64(l.opts.MaxInFlight)
			}
		} else {
			l.limit *= backoff
			if l.limit < minInFlight {
				l.limit = minInFlight
			}
			l.backoffs.Add(1)
		}
	}
	l.wakeLocked()
	l.mu.Unlock()
}

// wakeLocked grants free window slots to admission waiters in FIFO order.
// Woken waiters re-check the window, so waking a few too many is safe.
// Caller holds l.mu.
func (l *Limiter) wakeLocked() {
	free := len(l.waitq)
	if l.opts.MaxInFlight > 0 {
		free = int(l.limit) - l.inflight
	}
	for i := 0; i < free && len(l.waitq) > 0; i++ {
		ch := l.waitq[0]
		l.waitq = l.waitq[1:]
		close(ch)
	}
}

// Limit returns the current AIMD window (0 when concurrency limiting is
// disabled or the limiter is nil).
func (l *Limiter) Limit() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.MaxInFlight <= 0 {
		return 0
	}
	return l.limit
}

// InFlight returns the number of admitted, unreleased requests.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Waits returns how many acquisitions the rate meter delayed.
func (l *Limiter) Waits() int64 {
	if l == nil {
		return 0
	}
	return l.waits.Load()
}

// Backoffs returns how many congestion events shrank the window.
func (l *Limiter) Backoffs() int64 {
	if l == nil {
		return 0
	}
	return l.backoffs.Load()
}
