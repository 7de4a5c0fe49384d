package queryexec

import (
	"context"
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
	// Wire, when set, observes every connector call, the connector's
	// retries included; ExecLatency, when set, observes every logical
	// Execute through the layer, including admission waits. Wire calls
	// are rare and slow relative to a clock read, so these stay on for
	// all traffic; leave nil to skip the timing entirely.
	Wire        *telemetry.Histogram
	ExecLatency *telemetry.Histogram
}

// Executor is a formclient.Conn decorator implementing the execution
// layer. It is safe for concurrent use; in a typical stack it sits
// directly above the raw connector, below the shared history cache:
//
//	sampler → history.Cache → queryexec.Executor → formclient.HTTP
type Executor struct {
	inner formclient.Conn
	opts  Options
}

// New wraps inner with the execution layer.
func New(inner formclient.Conn, opts Options) *Executor {
	return &Executor{inner: inner, opts: opts}
}

// Schema implements formclient.Conn.
func (x *Executor) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return x.inner.Schema(ctx)
}

// Stats implements formclient.Conn: like the history cache, the executor
// reports the wrapped connector's real traffic, so samplers keep
// observing true query costs.
func (x *Executor) Stats() formclient.Stats { return x.inner.Stats() }

// Execute implements formclient.Conn: it sends q on the caller's
// goroutine, under the limiter. The layer retries nothing: the connector
// retries 429s and transient faults within formclient.MaxAttempts, and
// what it gives up on reaches the caller.
func (x *Executor) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if x.opts.ExecLatency == nil {
		return x.execute(ctx, q)
	}
	start := time.Now()
	res, err := x.execute(ctx, q)
	x.opts.ExecLatency.Observe(time.Since(start))
	return res, err
}

// execute issues one single-query connector call under the limiter. The
// admission slot is held for the connector's whole call, its retries
// included. A traced walk's mark goes straight onto its trace, since the
// call runs on the walk's goroutine.
func (x *Executor) execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if err := x.opts.Limiter.Acquire(ctx); err != nil {
		return nil, err
	}
	telemetry.TraceFrom(ctx).MarkExec(telemetry.ExecWire)
	var start time.Time
	if x.opts.Wire != nil {
		start = time.Now()
	}
	res, err := x.inner.Execute(ctx, q)
	if x.opts.Wire != nil {
		x.opts.Wire.Observe(time.Since(start))
	}
	x.opts.Limiter.Release()
	return res, err
}

var _ formclient.Conn = (*Executor)(nil)
