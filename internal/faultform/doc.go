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
// which makes queryexec's AIMD limiter and transient-retry paths, and the
// samplers' liveness properties, testable without a flaky network. 429 bursts are emulated the way formclient.HTTP experiences
// them (internal client retries surfacing as a RateLimitRetries advance,
// ErrRateLimited past the budget); transient blips surface as
// formclient.ErrTransient for the layer above to retry.
package faultform
