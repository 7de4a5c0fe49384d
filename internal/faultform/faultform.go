package faultform

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// Profile configures one adversarial interface persona. The zero Profile
// injects nothing.
type Profile struct {
	// Name identifies the profile in reports and metrics labels.
	Name string

	// RateLimitProb is the probability a query is 429-hit: its first
	// RateLimitBurst wire attempts (default 2) answer 429 before the site
	// calms down for that query. Bursts shorter than MaxRetries (default
	// 5, formclient.HTTP's budget) are absorbed by the emulated client
	// retry loop — visible to the AIMD limiter as a retry-counter advance;
	// longer bursts surface formclient.ErrRateLimited.
	RateLimitProb  float64
	RateLimitBurst int

	// TransientProb is the probability a query blips: its first
	// TransientBurst attempts (default 1) fail with formclient.ErrTransient
	// — a 5xx or timeout the layer above must retry.
	TransientProb  float64
	TransientBurst int

	// TopKJitter, in (0,1], varies the visible page size per query: a
	// jittered query hides up to this fraction of its returned rows (at
	// least one row stays). Hidden rows flip the result to overflow, the
	// way a site whose k fluctuates under-reports — the drill-down must
	// keep descending instead of trusting the short page.
	TopKJitter float64

	// Reorder shuffles each result's visible rows deterministically —
	// ranked/reordered interfaces must not bias row-picking samplers.
	Reorder bool

	// CountRoundTo rounds reported counts down to a multiple ("about
	// 1,200 results"), the stale/estimated count shape; values < 2 are
	// off. Counts already absent stay absent.
	CountRoundTo int

	// SlowStartCalls delays each of the first N wire interactions by
	// SlowStartLatency — a cold site warming up. Latency, when set, delays
	// every wire interaction.
	SlowStartCalls   int
	SlowStartLatency time.Duration
	Latency          time.Duration

	// MaxRetries is the emulated client's 429 retry budget per logical
	// execution (default 5, mirroring formclient.HTTPOptions).
	MaxRetries int
}

// Active reports whether the profile injects anything at all.
func (p Profile) Active() bool {
	return p.RateLimitProb > 0 || p.TransientProb > 0 || p.TopKJitter > 0 ||
		p.Reorder || p.CountRoundTo > 1 || p.SlowStartCalls > 0 || p.Latency > 0
}

// Presets returns the named fault profiles the scenario matrix and the
// daemon's -fault-profile flag accept, "none" first.
func Presets() []Profile {
	return []Profile{
		{Name: "none"},
		{
			// Availability faults only: the interface answers correctly but
			// rudely. Exercises AIMD backoff, client 429 retries and the
			// execution layer's transient retry without touching content.
			Name:          "flaky",
			RateLimitProb: 0.05, RateLimitBurst: 2,
			TransientProb: 0.04, TransientBurst: 1,
		},
		{
			// Content faults only: pages shrink, rows arrive reordered,
			// counts are rounded. Exercises the walk's overflow handling
			// and rank-independence.
			Name:       "jitter",
			TopKJitter: 0.5,
			Reorder:    true, CountRoundTo: 10,
		},
		{
			// Everything at once, plus a cold start.
			Name:          "hostile",
			RateLimitProb: 0.08, RateLimitBurst: 2,
			TransientProb: 0.06, TransientBurst: 2,
			TopKJitter: 0.5,
			Reorder:    true, CountRoundTo: 25,
			SlowStartCalls: 20, SlowStartLatency: 200 * time.Microsecond,
		},
	}
}

// Preset returns the named profile.
func Preset(name string) (Profile, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// PresetNames lists the accepted profile names in order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Stats counts the faults injected so far.
type Stats struct {
	// RateLimited is the number of simulated 429 responses; Exhausted429s
	// counts logical executions that ran out of the emulated retry budget
	// (and surfaced ErrRateLimited).
	RateLimited   int64 `json:"rate_limited"`
	Exhausted429s int64 `json:"exhausted_429s"`
	// Transients is the number of injected blips (ErrTransient returns).
	Transients int64 `json:"transients"`
	// Jittered counts results whose visible rows were trimmed, Reordered
	// those shuffled, RoundedCounts those whose count was coarsened.
	Jittered      int64 `json:"jittered"`
	Reordered     int64 `json:"reordered"`
	RoundedCounts int64 `json:"rounded_counts"`
	// SlowCalls counts wire interactions delayed by slow-start or latency.
	SlowCalls int64 `json:"slow_calls"`
}

// Total is the grand total of injected fault events.
func (s Stats) Total() int64 {
	return s.RateLimited + s.Exhausted429s + s.Transients + s.Jittered +
		s.Reordered + s.RoundedCounts + s.SlowCalls
}

// Wrap decorates inner with the profile's faults, deterministically from
// seed.
func Wrap(inner formclient.Conn, p Profile, seed int64) *Conn {
	if p.RateLimitBurst <= 0 {
		p.RateLimitBurst = 2
	}
	if p.TransientBurst <= 0 {
		p.TransientBurst = 1
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 5
	}
	return &Conn{
		inner:   inner,
		profile: p,
		seed:    uint64(seed),
		sleep:   sleepCtx,
		att:     make(map[uint64]*attemptState),
	}
}

// Conn is the fault-injecting connector: a formclient.Conn that also
// reports what it injected.
type Conn struct {
	inner   formclient.Conn
	profile Profile
	seed    uint64
	sleep   func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	att map[uint64]*attemptState // per query-signature fault consumption

	wireCalls  atomic.Int64
	simRetries atomic.Int64 // emulated client 429 retries, surfaced in Stats()

	sRateLimited atomic.Int64
	sExhausted   atomic.Int64
	sTransients  atomic.Int64
	sJittered    atomic.Int64
	sReordered   atomic.Int64
	sRounded     atomic.Int64
	sSlow        atomic.Int64
}

// attemptState tracks how much of a query's fault budget is consumed, so
// bursts are finite and every walk eventually gets through: liveness by
// construction.
type attemptState struct {
	rl, tr int
}

// maxAttemptEntries bounds the fault-consumption map: a long-running
// chaos deployment (hdsamplerd -fault-profile) must not grow memory with
// every distinct query it ever faulted.
const maxAttemptEntries = 1 << 16

// state returns (creating) the attempt state for a query signature; the
// caller must hold c.mu. At the cap the map resets wholesale: long-spent
// bursts may replay once, which the retry budgets above absorb (per
// logical execution the exposure is still bounded by the burst lengths);
// unbounded growth would not be absorbed by anything.
func (c *Conn) stateLocked(hash uint64) *attemptState {
	a, ok := c.att[hash]
	if !ok {
		if len(c.att) >= maxAttemptEntries {
			clear(c.att)
		}
		a = &attemptState{}
		c.att[hash] = a
	}
	return a
}

// Schema implements formclient.Conn.
func (c *Conn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return c.inner.Schema(ctx)
}

// Stats implements formclient.Conn: the inner connector's traffic plus
// the emulated client-side 429 retries, so the AIMD limiter above sees
// injected congestion exactly as it would see the real thing.
func (c *Conn) Stats() formclient.Stats {
	s := c.inner.Stats()
	s.RateLimitRetries += c.simRetries.Load()
	return s
}

// FaultStats snapshots the injection counters.
func (c *Conn) FaultStats() Stats {
	return Stats{
		RateLimited:   c.sRateLimited.Load(),
		Exhausted429s: c.sExhausted.Load(),
		Transients:    c.sTransients.Load(),
		Jittered:      c.sJittered.Load(),
		Reordered:     c.sReordered.Load(),
		RoundedCounts: c.sRounded.Load(),
		SlowCalls:     c.sSlow.Load(),
	}
}

// FaultProfile returns the active profile.
func (c *Conn) FaultProfile() Profile { return c.profile }

// Execute implements formclient.Conn.
func (c *Conn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if err := c.preflight(ctx, q.Hash(), q.Key()); err != nil {
		return nil, err
	}
	res, err := c.inner.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	return c.mutate(q.Hash(), res), nil
}

// preflight emulates the wire-level fault sequence of one logical
// execution identified by a signature hash: latency, the client-retried
// 429 burst, then a transient blip.
func (c *Conn) preflight(ctx context.Context, hash uint64, key string) error {
	n := c.wireCalls.Add(1)
	if c.profile.SlowStartCalls > 0 && n <= int64(c.profile.SlowStartCalls) {
		c.sSlow.Add(1)
		if err := c.sleep(ctx, c.profile.SlowStartLatency); err != nil {
			return err
		}
	}
	if d := c.profile.Latency; d > 0 {
		c.sSlow.Add(1)
		if err := c.sleep(ctx, d); err != nil {
			return err
		}
	}
	if err := c.sim429(ctx, hash, key); err != nil {
		return err
	}
	return c.simTransient(hash, key)
}

// sim429 plays out the emulated HTTP client's 429 retry loop for a
// rate-limit-hit query: each simulated 429 either becomes an internal
// retry (advancing the retry counter the AIMD limiter watches) or, past
// the budget, ErrRateLimited.
func (c *Conn) sim429(ctx context.Context, hash uint64, key string) error {
	if c.profile.RateLimitProb <= 0 || !c.hit(hash, saltRateLimit, c.profile.RateLimitProb) {
		return nil
	}
	for attempt := 0; attempt < c.profile.MaxRetries; attempt++ {
		c.mu.Lock()
		a := c.stateLocked(hash)
		hit := a.rl < c.profile.RateLimitBurst
		if hit {
			a.rl++
		}
		c.mu.Unlock()
		if !hit {
			return nil // the burst is spent; the site lets this one through
		}
		c.sRateLimited.Add(1)
		if attempt == c.profile.MaxRetries-1 {
			break
		}
		c.simRetries.Add(1)
		if err := c.sleep(ctx, 50*time.Microsecond); err != nil {
			return err
		}
	}
	c.sExhausted.Add(1)
	return fmt.Errorf("%w: faultform: %q kept answering 429", formclient.ErrRateLimited, key)
}

// simTransient injects one blip while the query's transient burst lasts.
func (c *Conn) simTransient(hash uint64, key string) error {
	if c.profile.TransientProb <= 0 || !c.hit(hash, saltTransient, c.profile.TransientProb) {
		return nil
	}
	c.mu.Lock()
	a := c.stateLocked(hash)
	hit := a.tr < c.profile.TransientBurst
	if hit {
		a.tr++
	}
	c.mu.Unlock()
	if !hit {
		return nil
	}
	c.sTransients.Add(1)
	return fmt.Errorf("%w: faultform: injected blip for %q", formclient.ErrTransient, key)
}

// mutate applies the content faults — top-k jitter, reordering, count
// rounding — as pure functions of the query signature, never touching the
// inner result (Results are immutable by convention).
func (c *Conn) mutate(hash uint64, res *hiddendb.Result) *hiddendb.Result {
	p := c.profile
	trim := 0
	if p.TopKJitter > 0 && len(res.Tuples) > 1 {
		trim = int(c.u01(hash, saltJitter) * p.TopKJitter * float64(len(res.Tuples)))
		if trim >= len(res.Tuples) {
			trim = len(res.Tuples) - 1
		}
	}
	round := p.CountRoundTo > 1 && res.Count != hiddendb.CountAbsent && res.Count%p.CountRoundTo != 0
	reorder := p.Reorder && len(res.Tuples) > 1
	if trim == 0 && !round && !reorder {
		return res
	}
	out := &hiddendb.Result{Overflow: res.Overflow, Count: res.Count}
	out.Tuples = make([]hiddendb.Tuple, len(res.Tuples))
	copy(out.Tuples, res.Tuples)
	if reorder {
		c.sReordered.Add(1)
		shuffle(out.Tuples, mix(c.seed, hash, saltReorder))
	}
	if trim > 0 {
		c.sJittered.Add(1)
		out.Tuples = out.Tuples[:len(out.Tuples)-trim]
		// Rows exist beyond the page: the honest flag for a shrunken page
		// is overflow, and the drill-down must descend rather than treat
		// the page as complete (silently unreachable rows would bias it).
		out.Overflow = true
	}
	if round {
		c.sRounded.Add(1)
		out.Count -= out.Count % p.CountRoundTo
	}
	return out
}

// hit decides a per-query fault membership from the seed, the query
// signature and a salt.
func (c *Conn) hit(hash, salt uint64, prob float64) bool {
	return c.u01(hash, salt) < prob
}

// u01 maps (seed, hash, salt) onto [0,1).
func (c *Conn) u01(hash, salt uint64) float64 {
	return float64(mix(c.seed, hash, salt)>>11) / float64(1<<53)
}

// shuffle permutes tuples with a Fisher–Yates walk driven by splitmix64.
func shuffle(ts []hiddendb.Tuple, state uint64) {
	for i := len(ts) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		ts[i], ts[j] = ts[j], ts[i]
	}
}

// Salts separate the fault families' hash streams.
const (
	saltRateLimit uint64 = 0xA1
	saltTransient uint64 = 0xB2
	saltJitter    uint64 = 0xC3
	saltReorder   uint64 = 0xD4
)

// mix folds values into one 64-bit hash via splitmix64.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h = splitmix64(h ^ v)
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

var _ formclient.Conn = (*Conn)(nil)
