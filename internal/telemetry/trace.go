package telemetry

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// CacheOutcome records how the history layer answered one query.
type CacheOutcome uint8

const (
	CacheNone          CacheOutcome = iota // no cache in the stack, or not recorded
	CacheMiss                              // forwarded to the execution layer
	CacheHit                               // rule 1: exact entry
	CacheInferAncestor                     // rule 2: filtered a cached ancestor's rows
	CacheInferEmpty                        // rule 3: an empty cached ancestor
	CacheInferSibling                      // rule 4: derived from sibling counts
)

func (o CacheOutcome) String() string {
	switch o {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CacheInferAncestor:
		return "infer-ancestor"
	case CacheInferEmpty:
		return "infer-empty"
	case CacheInferSibling:
		return "infer-sibling"
	default:
		return "none"
	}
}

// ExecOutcome records how the execution layer satisfied one query.
type ExecOutcome uint8

const (
	ExecNone ExecOutcome = iota // no execution layer, or not recorded
	ExecWire                    // sent on the wire
)

func (o ExecOutcome) String() string {
	switch o {
	case ExecWire:
		return "wire"
	default:
		return "none"
	}
}

// LevelOutcome records how one drill-down level resolved.
type LevelOutcome uint8

const (
	LevelUnknown  LevelOutcome = iota
	LevelValid                 // non-overflowing, non-empty: a terminal or a pick
	LevelOverflow              // top-k overflow: descend
	LevelEmpty                 // no matches: the walk restarts
	LevelError                 // the query itself failed
)

func (o LevelOutcome) String() string {
	switch o {
	case LevelValid:
		return "valid"
	case LevelOverflow:
		return "overflow"
	case LevelEmpty:
		return "empty"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// LevelSpan is one recorded drill-down query within a traced walk.
type LevelSpan struct {
	// Walk is the restart index (0 = first attempt) the query belongs to.
	Walk int
	// Depth is the drill-down level; Attr/Value identify the predicate the
	// query added (Value is -1 for probes without a concrete assignment).
	Depth, Attr, Value int
	Outcome            LevelOutcome
	Cache              CacheOutcome
	Exec               ExecOutcome
	// Retries counts transient wire retries spent on this query.
	Retries int
	// Latency is the whole conn.Execute round trip as the walker saw it;
	// CacheLatency is the history layer's share of it.
	Latency, CacheLatency time.Duration
}

// maxTraceLevels bounds one trace's recorded spans so a pathological walk
// cannot grow a trace without bound; excess levels are counted, not kept.
const maxTraceLevels = 256

// WalkTrace records one candidate draw end-to-end: every drill-down
// query with its cache/exec/wire outcome, plus the walk's final accept or
// reject decision. Traces are produced by a Tracer for a sampled fraction
// of walks, travel down the stack via WithTrace/TraceFrom, and are owned
// by a single walker goroutine until Finish hands them to the ring
// buffer. All methods are no-ops on a nil receiver.
type WalkTrace struct {
	tracer *Tracer

	Kind      string // "walk", "weighted"
	Job, Host string
	Start     time.Time
	Duration  time.Duration
	Queries   int
	Restarts  int
	Produced  bool // a candidate came out of the draw
	Decided   bool // the accept/reject stage saw the candidate
	Accepted  bool
	Slow      bool // exceeded the observer's latency or query budget
	Err       string
	Levels    []LevelSpan
	Truncated int // level spans dropped past maxTraceLevels

	open bool // a BeginLevel without its EndLevel yet
}

func (t *WalkTrace) reset() {
	levels := t.Levels[:0]
	*t = WalkTrace{Levels: levels}
}

// BeginLevel opens a span for one drill-down query.
func (t *WalkTrace) BeginLevel(walk, depth, attr, value int) {
	if t == nil {
		return
	}
	if len(t.Levels) >= maxTraceLevels {
		t.Truncated++
		t.open = false
		return
	}
	t.Levels = append(t.Levels, LevelSpan{Walk: walk, Depth: depth, Attr: attr, Value: value})
	t.open = true
}

// EndLevel closes the current span with its outcome and total latency.
func (t *WalkTrace) EndLevel(out LevelOutcome, d time.Duration) {
	if t == nil {
		return
	}
	if s := t.cur(); s != nil {
		s.Outcome = out
		s.Latency = d
		t.open = false
	}
}

// MarkCache records the history layer's answer for the current span.
func (t *WalkTrace) MarkCache(o CacheOutcome, lookup time.Duration) {
	if t == nil {
		return
	}
	if s := t.cur(); s != nil {
		s.Cache = o
		s.CacheLatency = lookup
	}
}

// MarkExec records the execution layer's outcome for the current span.
func (t *WalkTrace) MarkExec(o ExecOutcome) {
	if t == nil {
		return
	}
	if s := t.cur(); s != nil {
		s.Exec = o
	}
}

// AddRetry counts one transient wire retry against the current span.
func (t *WalkTrace) AddRetry() {
	if t == nil {
		return
	}
	if s := t.cur(); s != nil {
		s.Retries++
	}
}

// cur returns the open span, or nil when none is (including on a nil
// trace) — marks arriving outside a level are dropped, not misfiled.
func (t *WalkTrace) cur() *LevelSpan {
	if t == nil || !t.open || len(t.Levels) == 0 {
		return nil
	}
	return &t.Levels[len(t.Levels)-1]
}

// Decide records the rejection stage's verdict and finishes the trace —
// the accept/reject decision is the last event of a produced walk's life.
func (t *WalkTrace) Decide(accepted bool) {
	if t == nil {
		return
	}
	t.Decided = true
	t.Accepted = accepted
	t.Finish()
}

// Finish hands the trace to its tracer's ring buffer. Idempotent; the
// trace must not be touched by the finisher afterwards.
func (t *WalkTrace) Finish() {
	if t == nil || t.tracer == nil {
		return
	}
	tr := t.tracer
	t.tracer = nil
	tr.finish(t)
}

// ctxKey keys the in-flight trace in a context.
type ctxKey struct{}

// WithTrace attaches a trace to ctx so the layers below the walker
// (history, queryexec) can annotate it. Called only for sampled walks —
// it is the one allocating step of the tracing path.
func WithTrace(ctx context.Context, t *WalkTrace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the walk trace attached to ctx, or nil. This is the
// only per-query cost tracing imposes on untraced walks: one ctx.Value
// miss, no allocation.
func TraceFrom(ctx context.Context) *WalkTrace {
	t, _ := ctx.Value(ctxKey{}).(*WalkTrace)
	return t
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Rate is the fraction of walks to trace in [0,1]; 0 (or less)
	// disables sampling entirely.
	Rate float64
	// Seed seeds the sampling stream: equal seeds and rates make the
	// same sequence of trace/skip decisions (under a deterministic call
	// order), which is what replayable tests want.
	Seed uint64
	// Capacity is the finished-trace ring buffer size (default 128).
	Capacity int
}

// Tracer decides which walks to trace, recycles WalkTraces through a
// pool, and keeps the most recent finished traces in a fixed ring buffer
// for /debug/walks. A nil *Tracer never samples. Safe for concurrent use
// by many walker goroutines.
type Tracer struct {
	threshold uint64 // sample when the next splitmix64 draw is below this
	capacity  int

	rng      atomic.Uint64
	started  atomic.Int64
	finished atomic.Int64
	evicted  atomic.Int64

	pool sync.Pool

	mu   sync.Mutex
	ring []*WalkTrace
	next int
}

// NewTracer builds a tracer; a Rate of 0 yields a valid tracer that
// never samples (Start always returns nil).
func NewTracer(opts TracerOptions) *Tracer {
	t := &Tracer{capacity: opts.Capacity}
	if t.capacity <= 0 {
		t.capacity = 128
	}
	switch rate := opts.Rate; {
	case rate >= 1:
		t.threshold = math.MaxUint64
	case rate > 0:
		t.threshold = uint64(rate * float64(math.MaxUint64))
	}
	t.rng.Store(opts.Seed)
	return t
}

// sample draws the next decision from the seeded splitmix64 stream.
func (t *Tracer) sample() bool {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x <= t.threshold
}

// Start begins tracing one walk, or returns nil when the tracer is off
// or this walk falls outside the sample. The unsampled path is two loads
// and an atomic add — no time read, no allocation.
func (t *Tracer) Start(kind, job, host string) *WalkTrace {
	if t == nil || t.threshold == 0 || !t.sample() {
		return nil
	}
	t.started.Add(1)
	tr, _ := t.pool.Get().(*WalkTrace)
	if tr == nil {
		tr = &WalkTrace{Levels: make([]LevelSpan, 0, 64)}
	} else {
		tr.reset()
	}
	tr.tracer = t
	tr.Kind = kind
	tr.Job = job
	tr.Host = host
	tr.Start = time.Now()
	return tr
}

// finish stores a completed trace in the ring, recycling the trace it
// displaces. Traces in the ring are immutable until displaced.
func (t *Tracer) finish(tr *WalkTrace) {
	t.finished.Add(1)
	t.mu.Lock()
	var displaced *WalkTrace
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, tr)
	} else {
		displaced = t.ring[t.next]
		t.ring[t.next] = tr
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
	if displaced != nil {
		t.evicted.Add(1)
		t.pool.Put(displaced)
	}
}

// TracerStats counts a tracer's lifetime activity.
type TracerStats struct {
	// Started counts walks sampled into tracing; Finished counts traces
	// that completed and reached the ring; Evicted counts finished traces
	// the ring displaced; Buffered is the ring's current size.
	Started, Finished, Evicted int64
	Buffered                   int
}

// Stats returns the tracer's counters; zero on a nil tracer.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	buffered := len(t.ring)
	t.mu.Unlock()
	return TracerStats{
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Evicted:  t.evicted.Load(),
		Buffered: buffered,
	}
}

// TraceView is a finished trace rendered for JSON exposition
// (/debug/walks, hdbench -json).
type TraceView struct {
	Kind     string      `json:"kind"`
	Job      string      `json:"job,omitempty"`
	Host     string      `json:"host,omitempty"`
	Start    time.Time   `json:"start"`
	Duration float64     `json:"duration_ms"`
	Queries  int         `json:"queries"`
	Restarts int         `json:"restarts"`
	Produced bool        `json:"produced"`
	Decided  bool        `json:"decided"`
	Accepted bool        `json:"accepted"`
	Slow     bool        `json:"slow,omitempty"`
	Err      string      `json:"error,omitempty"`
	Levels   []LevelView `json:"levels,omitempty"`
	// Truncated counts level spans dropped past the per-trace cap.
	Truncated int `json:"truncated_levels,omitempty"`
}

// LevelView is one LevelSpan rendered for JSON exposition.
type LevelView struct {
	Walk      int     `json:"walk"`
	Depth     int     `json:"depth"`
	Attr      int     `json:"attr"`
	Value     int     `json:"value"`
	Outcome   string  `json:"outcome"`
	Cache     string  `json:"cache,omitempty"`
	Exec      string  `json:"exec,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	LatencyUS float64 `json:"latency_us"`
	CacheUS   float64 `json:"cache_latency_us,omitempty"`
}

// Dump snapshots the ring's finished traces, oldest first.
func (t *Tracer) Dump() []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*WalkTrace, 0, len(t.ring))
	// Ring order: next..end are the oldest entries once it has wrapped.
	traces = append(traces, t.ring[t.next:]...)
	traces = append(traces, t.ring[:t.next]...)
	out := make([]TraceView, len(traces))
	for i, tr := range traces {
		out[i] = tr.view()
	}
	t.mu.Unlock()
	return out
}

// view renders the trace; caller must hold the ring lock (the trace may
// be displaced and recycled otherwise).
func (t *WalkTrace) view() TraceView {
	v := TraceView{
		Kind:      t.Kind,
		Job:       t.Job,
		Host:      t.Host,
		Start:     t.Start,
		Duration:  float64(t.Duration) / float64(time.Millisecond),
		Queries:   t.Queries,
		Restarts:  t.Restarts,
		Produced:  t.Produced,
		Decided:   t.Decided,
		Accepted:  t.Accepted,
		Slow:      t.Slow,
		Err:       t.Err,
		Truncated: t.Truncated,
	}
	if len(t.Levels) > 0 {
		v.Levels = make([]LevelView, len(t.Levels))
		for i, s := range t.Levels {
			lv := LevelView{
				Walk:      s.Walk,
				Depth:     s.Depth,
				Attr:      s.Attr,
				Value:     s.Value,
				Outcome:   s.Outcome.String(),
				Retries:   s.Retries,
				LatencyUS: float64(s.Latency) / float64(time.Microsecond),
				CacheUS:   float64(s.CacheLatency) / float64(time.Microsecond),
			}
			if s.Cache != CacheNone {
				lv.Cache = s.Cache.String()
			}
			if s.Exec != ExecNone {
				lv.Exec = s.Exec.String()
			}
			v.Levels[i] = lv
		}
	}
	return v
}
