package telemetry

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter ignores increments.
type Counter struct {
	v atomic.Int64
}

// Inc adds one; nil-safe, allocation-free.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// WalkObserver bundles the per-walk instruments a generator records into:
// the trace sampler, the whole-walk latency histogram, and the slow-walk
// log. One observer serves all of a job's replicas concurrently; every
// field is optional, and a nil *WalkObserver disables observation
// entirely at the cost of two nil checks per candidate draw.
type WalkObserver struct {
	// Tracer samples walks for end-to-end tracing; nil or rate-0 traces
	// nothing.
	Tracer *Tracer
	// Duration observes every candidate draw's wall time.
	Duration *Histogram
	// SlowWalk and SlowQueries are the slow-walk log thresholds: a draw
	// lasting at least SlowWalk, or spending at least SlowQueries
	// interface queries, is logged and counted. 0 disables either check.
	SlowWalk    time.Duration
	SlowQueries int
	// SlowCount counts slow walks (for the metrics registry).
	SlowCount *Counter
	// Logger receives slow-walk records; nil uses slog.Default.
	Logger *slog.Logger
	// Job and Host label everything the observer emits.
	Job, Host string
}

// WalkSpan is one candidate draw under observation, created by Begin and
// completed by End. The zero value (from a nil observer) is inert.
type WalkSpan struct {
	obs   *WalkObserver
	tr    *WalkTrace
	start time.Time
}

// Begin starts observing one candidate draw of the given kind ("walk",
// "weighted"). If the draw is sampled for tracing, the returned context
// carries the trace down the stack. On a nil observer both returns are
// pass-throughs and nothing is recorded — not even the time.
func (o *WalkObserver) Begin(ctx context.Context, kind string) (WalkSpan, context.Context) {
	if o == nil {
		return WalkSpan{}, ctx
	}
	sp := WalkSpan{obs: o, start: time.Now()}
	if tr := o.Tracer.Start(kind, o.Job, o.Host); tr != nil {
		sp.tr = tr
		ctx = WithTrace(ctx, tr)
	}
	return sp, ctx
}

// Trace returns the span's trace, nil when the draw is untraced.
func (sp WalkSpan) Trace() *WalkTrace { return sp.tr }

// End completes the draw observation: it feeds the duration histogram,
// applies the slow-walk thresholds, and fills the trace's draw-level
// fields. When the draw produced a candidate the still-open trace is
// returned for the caller to attach to it (the accept/reject stage
// finishes it via Decide); otherwise the trace is finished here and End
// returns nil.
func (sp WalkSpan) End(queries, restarts int, produced bool, err error) *WalkTrace {
	o := sp.obs
	if o == nil {
		return nil
	}
	d := time.Since(sp.start)
	o.Duration.Observe(d)
	slow := (o.SlowWalk > 0 && d >= o.SlowWalk) || (o.SlowQueries > 0 && queries >= o.SlowQueries)
	if tr := sp.tr; tr != nil {
		tr.Duration = d
		tr.Queries = queries
		tr.Restarts = restarts
		tr.Produced = produced
		tr.Slow = slow
		if err != nil {
			tr.Err = err.Error()
		}
	}
	if slow {
		o.SlowCount.Inc()
		lg := o.Logger
		if lg == nil {
			lg = slog.Default()
		}
		lg.Warn("slow walk",
			slog.String("job", o.Job),
			slog.String("host", o.Host),
			slog.Duration("duration", d),
			slog.Int("queries", queries),
			slog.Int("restarts", restarts),
			slog.Bool("produced", produced))
	}
	if !produced {
		sp.tr.Finish()
		return nil
	}
	return sp.tr
}
