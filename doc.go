// Package hdsampler reproduces HDSampler (SIGMOD 2009): a practical system
// for drawing random samples from structured hidden web databases through
// their conjunctive top-k form interfaces, and for answering approximate
// aggregate queries from those samples.
//
// # Background
//
// A hidden database sits behind a web form: a client can only issue
// conjunctive equality queries and sees at most the top-k ranked matches,
// with an overflow notification when more qualify. HDSampler draws
// near-uniform random samples through that interface using the
// HIDDEN-DB-SAMPLER random drill-down (Dasgupta, Das, Mannila — SIGMOD
// 2007): start broad, add random predicates while the query overflows, and
// pick a returned row once it does not; an acceptance/rejection step then
// trades residual skew against query cost. Count-leveraging optimizations
// (Dasgupta, Zhang, Das — ICDE 2009) — query-history reuse and
// count-weighted drill-downs — cut the query bill further.
//
// # Layout
//
// This root package is a facade over the implementation packages. Its
// NewStack is the one builder of the query path every sampler draws
// through (connector → execution layer → history cache, when enabled):
//
//   - internal/hiddendb — the hidden database engine (schema, conjunctive
//     top-k execution, ranking, count modes, budgets)
//   - internal/webform — an HTTP server exposing a database behind an HTML
//     form interface (the Google Base stand-in)
//   - internal/htmlx, internal/formclient — HTML scraping and the Local
//     and HTTP connectors; HTTP retries each request's 429s, 5xx answers
//     and timeouts within one budget of formclient.MaxAttempts, the query
//     path's only retry loop
//   - internal/history — query memoization and inference
//   - internal/queryexec — the query-execution layer every sampler routes
//     through: a fixed concurrency cap with an aggregate per-host rate
//     budget (Config.Exec tunes it)
//   - internal/core — the samplers, rejection, and Draw: the one draw
//     loop, with live counters and cancellation as its kill switch
//   - internal/jobsvc — the sampling job-orchestration service behind
//     cmd/hdsamplerd: worker pools, a query stack per target and history
//     mode, politeness budgets, checkpoints and the REST API
//   - internal/store — durable sample sets with schema and provenance
//   - internal/exact — closed-form walk analysis for experiments
//   - internal/estimate, internal/metrics — output statistics
//   - internal/datagen — seeded synthetic datasets, including the Vehicles
//     inventory used throughout the experiments
//
// # Quickstart
//
//	conn := hdsampler.Dial("http://dealer.example.com")
//	s, err := hdsampler.New(ctx, conn, hdsampler.Config{Slider: 0.6, UseHistory: true})
//	if err != nil { ... }
//	tuples, stats, err := s.Draw(ctx, 200)
//
// # Performance
//
// The walk→history→exec→backend pipeline is allocation-free on its hot
// path: queries carry a canonical signature (cached key + 64-bit hash)
// computed once at construction, the history cache and execution layer
// key their maps on that hash with full-key collision verification, the
// simulated backend intersects compressed posting bitmaps on pooled
// scratch, and results share immutable tuple storage instead
// of deep-cloning per layer (hiddendb.Result documents the read-only
// convention). See README.md's "Performance" section for the design and
// the measured before/after numbers.
//
// See example_test.go for runnable examples and cmd/ for the CLI tools.
package hdsampler
