package queryexec

import (
	"context"
	"errors"
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
	// Wire, when set, observes every wire round trip, the connector's
	// retries included; ExecLatency, when set, observes every logical
	// Execute through the layer, including admission waits. Wire calls
	// are rare and slow relative to a clock read, so these stay on for
	// all traffic; leave nil to skip the timing entirely.
	Wire        *telemetry.Histogram
	ExecLatency *telemetry.Histogram
}

// Stats counts the execution layer's work.
type Stats struct {
	// Queries is the number of logical queries answered.
	Queries int64
	// WireCalls counts the queries sent to the connector, one per query
	// the layer admitted; the requests the connector spent on them,
	// retries included, are in its Stats.
	WireCalls int64
}

// Executor is a formclient.Conn decorator implementing the execution
// layer. It is safe for concurrent use; in a typical stack it sits
// directly above the raw connector, below the shared history cache:
//
//	sampler → history.Cache → queryexec.Executor → formclient.{API,HTTP}
type Executor struct {
	inner formclient.Conn
	opts  Options

	lastRetries atomic.Int64

	queries atomic.Int64
	wire    atomic.Int64
}

// New wraps inner with the execution layer.
func New(inner formclient.Conn, opts Options) *Executor {
	x := &Executor{inner: inner, opts: opts}
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

// ExecStats returns the layer's query and wire counters.
func (x *Executor) ExecStats() Stats {
	return Stats{Queries: x.queries.Load(), WireCalls: x.wire.Load()}
}

// Execute implements formclient.Conn: it sends q on the caller's
// goroutine, under the limiter. The layer retries nothing: the connector
// retries 429s and transient faults within formclient.MaxAttempts, and
// what it gives up on reaches the caller.
func (x *Executor) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	x.queries.Add(1)
	if x.opts.ExecLatency == nil {
		return x.execute(ctx, q)
	}
	start := time.Now()
	res, err := x.execute(ctx, q)
	x.opts.ExecLatency.Observe(time.Since(start))
	return res, err
}

// execute issues one single-query wire request under the limiter. The
// admission slot is held for the connector's whole call, its retries
// included. A traced walk's marks go straight onto its trace, since the
// call runs on the walk's goroutine.
func (x *Executor) execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if err := x.opts.Limiter.Acquire(ctx); err != nil {
		return nil, err
	}
	if tr := telemetry.TraceFrom(ctx); tr != nil {
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
	return res, err
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
