// Package queryexec is the query-execution layer every sampler routes
// through on its way to the interface. It attacks the round trips the
// history cache cannot: the cache memoizes *completed* queries, but
// concurrent replicas walking the same top-of-tree prefixes race
// identical in-flight queries past each other and all miss. The layer
// stacks three mechanisms below the cache:
//
//   - Single-flight coalescing: identical in-flight queries (keyed like
//     the history cache, on the canonical Query.Key) collapse into one
//     wire request whose answer fans out to every waiter. The leader
//     executes on its caller's goroutine; every other query is sent
//     alone, one wire request each, the way a web form answers them.
//   - An AIMD adaptive concurrency limiter shared per host: additive
//     increase on clean responses, multiplicative decrease on 429
//     pushback, plus an aggregate rate meter. This replaces the fixed
//     per-goroutine politeness sleep, which never bounded the *aggregate*
//     rate (N replicas each sleeping independently still hit the site at
//     N times the configured pace).
//   - Bounded transient retry: a wire execution failing with
//     formclient.ErrTransient (a 5xx blip, a timed-out request) is
//     repeated a few times before the error reaches the leader and every
//     follower coalesced onto its flight.
package queryexec
