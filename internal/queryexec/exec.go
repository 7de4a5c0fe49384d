package queryexec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// Options tunes an Executor.
type Options struct {
	// Limiter is the shared per-host admission controller; nil runs
	// unlimited.
	Limiter *Limiter
	// TransientRetries bounds how many times a wire execution that failed
	// with formclient.ErrTransient (a 5xx blip, a timed-out request, an
	// injected fault) is retried before the error propagates — without it,
	// one blip kills the leader's walk AND every follower coalesced onto
	// the same flight. Default 2; negative disables retrying.
	TransientRetries int
	// Sleep paces transient-retry backoff, overridable by tests; defaults
	// to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Wire, when set, observes every wire round trip; ExecLatency, when
	// set, observes every logical Execute through the layer, including
	// coalescing waits. Wire calls are rare and slow relative to a clock
	// read, so these stay on for all traffic; leave nil to skip the timing
	// entirely.
	Wire        *telemetry.Histogram
	ExecLatency *telemetry.Histogram
}

// Stats counts the execution layer's work.
type Stats struct {
	// Queries is the number of logical queries answered.
	Queries int64
	// Coalesced counts queries answered by joining an identical in-flight
	// query instead of issuing their own wire request.
	Coalesced int64
	// WireCalls counts wire executions, transient retries included.
	WireCalls int64
	// TransientRetries counts wire executions repeated after a transient
	// interface fault (formclient.ErrTransient).
	TransientRetries int64
}

// Executor is a formclient.Conn decorator implementing the execution
// layer. It is safe for concurrent use; in a typical stack it sits
// directly above the raw connector, below the shared history cache:
//
//	sampler → history.Cache → queryexec.Executor → formclient.{API,HTTP}
type Executor struct {
	inner formclient.Conn
	opts  Options

	mu    sync.Mutex
	calls map[uint64]*call // keyed by query signature hash; chained on collision

	lastRetries atomic.Int64

	queries    atomic.Int64
	coalesced  atomic.Int64
	wire       atomic.Int64
	transients atomic.Int64
}

// call is one in-flight single-flight execution. Calls live in a map
// keyed by the query's precomputed 64-bit signature hash; the full
// canonical key resolves the (vanishingly rare) signature collision via
// the next chain, so distinct queries never share a flight.
type call struct {
	key  string // canonical query key, verified on every hash-slot probe
	next *call  // signature-collision chain within a map slot

	done chan struct{}
	res  *hiddendb.Result
	err  error
}

// findCall walks a hash slot's collision chain for the call matching the
// full canonical key. The caller holds the executor's mutex. The chain
// discipline mirrors history's shard.get/put/detach (internal/history/
// shard.go) — a change to either unlink path likely applies to both;
// each has its own collision-chain test pinning the surgery.
func findCall(calls map[uint64]*call, hash uint64, key string) *call {
	for c := calls[hash]; c != nil; c = c.next {
		if c.key == key {
			return c
		}
	}
	return nil
}

// removeCall unlinks c from its hash slot's chain. The caller holds the
// executor's mutex.
func removeCall(calls map[uint64]*call, hash uint64, c *call) {
	head := calls[hash]
	if head == c {
		if c.next == nil {
			delete(calls, hash)
		} else {
			calls[hash] = c.next
		}
		c.next = nil
		return
	}
	for cur := head; cur != nil; cur = cur.next {
		if cur.next == c {
			cur.next = c.next
			c.next = nil
			return
		}
	}
}

// New wraps inner with the execution layer.
func New(inner formclient.Conn, opts Options) *Executor {
	if opts.TransientRetries == 0 {
		opts.TransientRetries = 2
	} else if opts.TransientRetries < 0 {
		opts.TransientRetries = 0
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	x := &Executor{inner: inner, opts: opts, calls: make(map[uint64]*call)}
	// Snapshot the connector's retry counter: pre-existing 429 history on
	// a reused connector is not congestion this executor caused.
	x.lastRetries.Store(inner.Stats().RateLimitRetries)
	return x
}

// Schema implements formclient.Conn.
func (x *Executor) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return x.inner.Schema(ctx)
}

// Stats implements formclient.Conn: like the history cache, the executor
// reports the wrapped connector's real traffic so samplers keep observing
// true query costs. The layer's own effect is in ExecStats.
func (x *Executor) Stats() formclient.Stats { return x.inner.Stats() }

// ExecStats returns the layer's coalescing, wire and retry counters.
func (x *Executor) ExecStats() Stats {
	return Stats{
		Queries:          x.queries.Load(),
		Coalesced:        x.coalesced.Load(),
		WireCalls:        x.wire.Load(),
		TransientRetries: x.transients.Load(),
	}
}

// Limiter returns the shared admission controller (nil when unlimited).
func (x *Executor) Limiter() *Limiter { return x.opts.Limiter }

// Execute implements formclient.Conn with single-flight semantics: the
// first caller of a canonical query becomes its leader and executes it on
// its own goroutine; callers arriving while it is in flight wait and share
// the answer. Flights are keyed by the query's precomputed signature hash
// (full-key verified), and followers share the leader's Result outright —
// Results are immutable by convention, so fan-out costs no deep copies.
//
//hdlint:hotpath
func (x *Executor) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	x.queries.Add(1)
	tr := telemetry.TraceFrom(ctx)
	if x.opts.ExecLatency == nil {
		return x.execute(ctx, q, tr)
	}
	start := time.Now()
	res, err := x.execute(ctx, q, tr)
	x.opts.ExecLatency.Observe(time.Since(start))
	return res, err
}

// execute is Execute's single-flight body; tr is the caller's walk trace
// (nil when untraced).
//
//hdlint:hotpath
func (x *Executor) execute(ctx context.Context, q hiddendb.Query, tr *telemetry.WalkTrace) (*hiddendb.Result, error) {
	hash, key := q.Hash(), q.Key()
	for {
		x.mu.Lock()
		if c := findCall(x.calls, hash, key); c != nil {
			x.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != nil {
				// A leader cancelled by its own caller must not poison
				// followers whose contexts are still live: retry, becoming
				// the new leader.
				if ctx.Err() == nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
					continue
				}
				return nil, c.err
			}
			x.coalesced.Add(1)
			if tr != nil {
				tr.MarkExec(telemetry.ExecCoalesced)
			}
			return c.res, nil
		}
		//hdlint:ignore hotpath the leader's flight record: one allocation per distinct in-flight query, amortized across every coalesced follower
		c := &call{key: key, done: make(chan struct{})}
		c.next = x.calls[hash]
		x.calls[hash] = c
		x.mu.Unlock()

		res, err := x.execDirect(ctx, q, tr)

		x.mu.Lock()
		removeCall(x.calls, hash, c)
		c.res, c.err = res, err
		x.mu.Unlock()
		close(c.done)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// execDirect issues one single-query wire request under the limiter,
// retrying transient interface faults within the configured budget. The
// admission slot is held only for the wire call itself — a backoff sleep
// must not starve other queries of the window. tr is the leader's walk
// trace (nil when untraced); the leader runs on its caller's goroutine, so
// the marks go straight onto it.
func (x *Executor) execDirect(ctx context.Context, q hiddendb.Query, tr *telemetry.WalkTrace) (*hiddendb.Result, error) {
	for attempt := 0; ; attempt++ {
		if err := x.opts.Limiter.Acquire(ctx); err != nil {
			return nil, err
		}
		if tr != nil {
			// Traced walks record the AIMD window as seen at send time; the
			// Limit read takes the limiter mutex, so it stays off the
			// untraced path.
			tr.MarkExec(telemetry.ExecWire)
			tr.SetAIMDLimit(x.opts.Limiter.Limit())
		}
		var start time.Time
		if x.opts.Wire != nil {
			start = time.Now()
		}
		res, err := x.inner.Execute(ctx, q)
		if x.opts.Wire != nil {
			x.opts.Wire.Observe(time.Since(start))
		}
		x.wire.Add(1)
		x.opts.Limiter.Release(x.clean(err))
		if !x.retryable(ctx, err, attempt) {
			return res, err
		}
		x.transients.Add(1)
		if tr != nil {
			tr.AddRetry()
		}
		if serr := x.opts.Sleep(ctx, transientBackoff(attempt)); serr != nil {
			return nil, serr
		}
	}
}

// retryable reports whether a failed wire execution should be repeated:
// only transient faults, only within the budget, and never once the
// caller's context is gone.
func (x *Executor) retryable(ctx context.Context, err error, attempt int) bool {
	return err != nil && attempt < x.opts.TransientRetries &&
		errors.Is(err, formclient.ErrTransient) && ctx.Err() == nil
}

// transientBackoff spaces retry attempts: short, because blips are short.
func transientBackoff(attempt int) time.Duration {
	d := 2 * time.Millisecond << attempt
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// clean reports whether a wire interaction ran free of rate-limit
// pushback; it feeds the AIMD controller. The connector retries 429s
// internally, so pushback is visible as a retry-counter advance (or, past
// the retry budget, as ErrRateLimited).
func (x *Executor) clean(err error) bool {
	retries := x.inner.Stats().RateLimitRetries
	prev := x.lastRetries.Swap(retries)
	if err != nil && errors.Is(err, formclient.ErrRateLimited) {
		return false
	}
	return retries <= prev
}

var _ formclient.Conn = (*Executor)(nil)
