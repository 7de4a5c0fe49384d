// Package queryexec is the query-execution layer every sampler routes
// through on its way to the interface. It sits below the history cache
// and sends each query the cache misses as one wire request, on its
// caller's goroutine, the way a web form answers them. It adds two
// mechanisms:
//
//   - An AIMD adaptive concurrency limiter shared per host: additive
//     increase on clean responses, multiplicative decrease on 429
//     pushback, plus an aggregate rate meter. This replaces the fixed
//     per-goroutine politeness sleep, which never bounded the *aggregate*
//     rate (N replicas each sleeping independently still hit the site at
//     N times the configured pace).
//   - Bounded transient retry: a wire execution failing with
//     formclient.ErrTransient (a 5xx blip, a timed-out request) is
//     repeated a few times before the error reaches the caller.
package queryexec
