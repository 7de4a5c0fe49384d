package hdsampler

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hdsampler/internal/core"
	"hdsampler/internal/estimate"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/telemetry"
)

// Re-exported types so callers need only this package for common use.
type (
	// Schema describes a hidden database's searchable attributes.
	Schema = hiddendb.Schema
	// Attribute is one searchable field.
	Attribute = hiddendb.Attribute
	// Tuple is one sampled row.
	Tuple = hiddendb.Tuple
	// Query is a conjunction of equality predicates.
	Query = hiddendb.Query
	// Predicate is one equality constraint.
	Predicate = hiddendb.Predicate
	// Result is a query answer: top-k rows, overflow flag, optional count.
	Result = hiddendb.Result
	// Conn is the restricted interface connector samplers draw through.
	Conn = formclient.Conn
	// Estimate is a point estimate with a standard error.
	Estimate = estimate.Estimate
	// Marginal is a sampled attribute histogram.
	Marginal = estimate.Marginal
)

// Method selects the sampling algorithm.
type Method int

const (
	// MethodRandomWalk is HIDDEN-DB-SAMPLER: the random drill-down with
	// early termination and acceptance/rejection (the system's default).
	MethodRandomWalk Method = iota
	// MethodBruteForce probes uniformly random fully-specified queries —
	// provably uniform, prohibitively slow; the validation baseline.
	MethodBruteForce
	// MethodCountWeighted drills down weighting branches by reported
	// counts (requires a count-reporting interface).
	MethodCountWeighted
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRandomWalk:
		return "random-walk"
	case MethodBruteForce:
		return "brute-force"
	case MethodCountWeighted:
		return "count-weighted"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ExecConfig tunes the query-execution layer (internal/queryexec) every
// sampler draws through: a fixed concurrency cap and a rate meter shared
// by every replica on the connector. Retries are the connector's own,
// within formclient.MaxAttempts per request.
type ExecConfig struct {
	// MaxInFlight caps the queries in flight to the connector across all
	// replicas: a fixed cap. 0 disables concurrency limiting.
	MaxInFlight int
	// RatePerSec caps the replicas' aggregate query rate: the one
	// per-host pacing knob, bounding the sum over every replica sharing
	// the connector. The meter admits one token per query; the
	// connector's retries and a paginated answer's later pages ride on
	// that admission. 0 disables.
	RatePerSec float64
	// Burst is the rate cap's token bucket capacity (default 10).
	Burst int
}

// options converts the knobs to the layer's options. The admission
// controller exists only when a concurrency or rate cap is set.
func (e ExecConfig) options() queryexec.Options {
	var o queryexec.Options
	if e.MaxInFlight > 0 || e.RatePerSec > 0 {
		o.Limiter = queryexec.NewLimiter(queryexec.LimiterOptions{
			MaxInFlight: e.MaxInFlight,
			RatePerSec:  e.RatePerSec,
			Burst:       e.Burst,
		})
	}
	return o
}

// Config tunes a Sampler.
type Config struct {
	// Method selects the algorithm; default MethodRandomWalk.
	Method Method
	// Seed drives all randomness; runs with equal seeds and connectors
	// are reproducible.
	Seed int64
	// Slider is the demo's efficiency↔skew knob in [0,1]: 0 = lowest skew
	// (most rejections), 1 = fastest (accept everything). The zero-value
	// Config defaults to 1 (fastest); set SliderSet to make an explicit
	// Slider: 0 mean what the documentation says.
	Slider float64
	// SliderSet marks Slider as explicitly configured. Without it a
	// Slider of 0 — the zero value — keeps the "fastest" default; with
	// it, Slider: 0 selects the documented lowest-skew walk.
	SliderSet bool
	// C, when positive, sets the rejection target reach probability
	// directly, overriding Slider.
	C float64
	// K is the interface's top-k limit, used only to map Slider onto C;
	// defaults to 1000 (Google Base's limit) when unknown.
	K int
	// Attrs restricts sampling to an attribute subset (schema indexes).
	Attrs []int
	// ShuffleOrder reshuffles the walk's attribute order per walk.
	ShuffleOrder bool
	// UseHistory interposes the query-history cache (memoization and
	// inference) between the sampler and the connector.
	UseHistory bool
	// TrustCounts enables count-based history inference; enable only when
	// the interface reports exact counts.
	TrustCounts bool
	// UseParentCount enables the count-weighted walker's sibling
	// inference; meaningful only with MethodCountWeighted + exact counts.
	UseParentCount bool
	// Exec tunes the query-execution layer, which New and DrawParallel
	// always place below the history cache.
	Exec ExecConfig
	// Obs observes candidate draws: walk-duration histogram, sampled walk
	// tracing, and the slow-walk log. The observer's instruments are
	// concurrency-safe, so ReplicaSet shares one observer across all
	// replicas. Nil disables observation (the zero-overhead default).
	Obs *telemetry.WalkObserver
}

// Stats summarizes a Draw call.
type Stats struct {
	// Candidates, Accepted, Rejected describe the rejection step.
	Candidates int64
	Accepted   int64
	Rejected   int64
	// Queries is the interface query bill of the processed candidates,
	// the sum of their draw costs (a draw cut short by an error is not
	// billed); QueriesSaved is the number answered by the history cache
	// instead.
	Queries      int64
	QueriesSaved int64
	// QueriesRetried counts requests the connector repeated after
	// transient interface faults (5xx blips, timeouts) during the call —
	// misbehaviour absorbed before it could kill a walk. It is read from
	// the connector's Stats().TransientRetries, so it includes the
	// retries of any other caller drawing through the same connector at
	// the same time.
	QueriesRetried int64
	Elapsed        time.Duration
}

// Sampler is the assembled system: the query stack (connector, execution
// layer, optional history cache), a generator and the rejection
// processor.
type Sampler struct {
	stack *Stack
	replica
}

// New assembles a sampler over the connector: the Stack cfg describes,
// with one generator and rejector drawing through it.
func New(ctx context.Context, conn Conn, cfg Config) (*Sampler, error) {
	st := cfg.stack(conn)
	r, err := newReplica(ctx, st.Conn(), cfg)
	if err != nil {
		return nil, err
	}
	return &Sampler{stack: st, replica: r}, nil
}

// replica is one generator and its acceptance/rejection processor: the
// part of a sampler above the query stack. New builds one; NewReplicaSet
// builds one per worker.
type replica struct {
	gen    core.Generator
	rej    core.Acceptor
	schema *Schema
}

// newReplica builds the generator and rejector cfg selects over conn. The
// stack options in cfg (UseHistory, TrustCounts, Exec) are not read: conn
// is the stack.
func newReplica(ctx context.Context, conn Conn, cfg Config) (replica, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return replica{}, err
	}
	r := replica{schema: schema}
	order := core.OrderFixed
	if cfg.ShuffleOrder {
		order = core.OrderShuffle
	}
	switch cfg.Method {
	case MethodRandomWalk:
		r.gen, err = core.NewWalker(ctx, conn, core.WalkerConfig{
			Seed: cfg.Seed, Order: order, Attrs: cfg.Attrs, Obs: cfg.Obs,
		})
	case MethodBruteForce:
		r.gen, err = core.NewBruteForce(ctx, conn, core.BruteForceConfig{
			Seed: cfg.Seed, Attrs: cfg.Attrs,
		})
	case MethodCountWeighted:
		r.gen, err = core.NewCountWalker(ctx, conn, core.CountWalkerConfig{
			Seed: cfg.Seed, Order: order, Attrs: cfg.Attrs,
			UseParentCount: cfg.UseParentCount, Obs: cfg.Obs,
		})
	default:
		return r, fmt.Errorf("hdsampler: unknown method %v", cfg.Method)
	}
	if err != nil {
		return r, err
	}
	// Brute force is already uniform: no rejection. Otherwise derive C
	// from the explicit value or the slider.
	if cfg.Method != MethodBruteForce {
		c := cfg.C
		if c <= 0 {
			k := cfg.K
			if k <= 0 {
				k = 1000
			}
			slider := cfg.Slider
			if slider == 0 && !cfg.SliderSet {
				// Zero-value Config means "fastest": the raw walk. An
				// explicit Slider: 0 (SliderSet) keeps the documented
				// lowest-skew meaning instead.
				slider = 1
			}
			c = core.SliderC(schema, cfg.Attrs, k, slider)
		}
		if c < 1 {
			r.rej = core.NewRejector(c, cfg.Seed+1)
		}
	}
	return r, nil
}

// Schema returns the target database's discovered schema.
func (r replica) Schema() *Schema { return r.schema }

// C returns the effective rejection target: 1 when accepting everything.
func (r replica) C() float64 {
	if rej, ok := r.rej.(*core.Rejector); ok {
		return rej.C
	}
	return 1
}

// Draw synchronously collects n accepted samples. Stats are per-call
// deltas: the stack's counters (QueriesSaved, QueriesRetried) are
// windowed over this call like every other counter, so consecutive Draws
// never double-report them.
func (s *Sampler) Draw(ctx context.Context, n int) ([]Tuple, Stats, error) {
	m := s.stack.mark()
	start := time.Now()
	tuples, c, err := core.Collect(ctx, s.gen, s.rej, n)
	st := statsOf(c)
	st.Elapsed = time.Since(start)
	s.stack.fill(&st, m)
	return tuples, st, err
}

// statsOf converts a draw loop's counts to Stats.
func statsOf(c core.Counts) Stats {
	return Stats{Candidates: c.Candidates, Accepted: c.Accepted, Rejected: c.Rejected, Queries: c.Queries}
}

// HistoryStats returns (saved, issued) query counts when UseHistory is on.
func (s *Sampler) HistoryStats() (saved, issued int64) {
	if s.stack.cache == nil {
		return 0, 0
	}
	cs := s.stack.cache.CacheStats()
	return cs.Saved(), cs.Issued
}

// Dial returns a connector that scrapes the HTML form interface rooted at
// baseURL — the way HDSampler drove Google Base.
func Dial(baseURL string) Conn {
	return formclient.NewHTTP(baseURL, formclient.HTTPOptions{})
}

// DialWithClient is Dial with a custom *http.Client (timeouts, proxies,
// test servers).
func DialWithClient(baseURL string, client *http.Client) Conn {
	return formclient.NewHTTP(baseURL, formclient.HTTPOptions{Client: client})
}

// LocalConn wraps an in-process hidden database as a connector (the demo's
// "locally simulated hidden database" mode).
func LocalConn(db *hiddendb.DB) Conn {
	return formclient.NewLocal(db)
}

// Marginals computes per-attribute histograms of a sample set.
func Marginals(schema *Schema, samples []Tuple) []Marginal {
	return estimate.Marginals(schema, samples)
}

// CountEstimate estimates COUNT(*) WHERE pred given the population size.
func CountEstimate(samples []Tuple, pred Query, population int) Estimate {
	return estimate.Count(samples, pred, population)
}

// SumEstimate estimates SUM(attr) WHERE pred given the population size.
func SumEstimate(samples []Tuple, pred Query, attr, population int) Estimate {
	return estimate.Sum(samples, pred, attr, population)
}

// AvgEstimate estimates AVG(attr) WHERE pred.
func AvgEstimate(samples []Tuple, pred Query, attr int) Estimate {
	return estimate.Avg(samples, pred, attr)
}

// ProportionEstimate estimates the fraction of rows matching pred.
func ProportionEstimate(samples []Tuple, pred Query) Estimate {
	return estimate.Proportion(samples, pred)
}
