// Package faultform wraps any formclient.Conn in a deterministic
// adversarial interface: the messy behaviours real hidden-database sites
// exhibit — 429 bursts, 5xx/timeout blips, top-k jitter (the visible page
// size varies per query), result reordering, stale/rounded counts, and
// slow-start latency — injected as pure functions of a seed and the query
// signature, so every run with one seed replays the same misbehaviour.
//
// The wrapper sits where the wire would be, below the query stack that
// hdsampler.NewStack assembles:
//
//	sampler → history.Cache → queryexec.Executor → faultform → formclient.Local
//
// which makes queryexec's admission limiter, the connector's retry loop,
// and the samplers' liveness properties testable without a flaky network.
// 429 bursts and transient blips play out the way formclient.HTTP
// experiences them: inside one emulated retry loop of
// formclient.MaxAttempts attempts per execution, 429s first, each retry
// surfacing as a RateLimitRetries or TransientRetries advance, and
// ErrRateLimited or ErrTransient past the budget. It does not play the
// connector's 429 retry lane: its 429s are drawn per query, not from a
// token bucket the concurrent queries share, so nothing races for a
// token. Its one user is the scenario matrix's fault axis.
package faultform
