// Package queryexec is the query-execution layer every sampler routes
// through on its way to the interface. It sits below the history cache
// and sends each query the cache misses as one connector call, on its
// caller's goroutine, the way a web form answers them, under a per-host
// admission limiter: a fixed concurrency cap plus an aggregate rate
// meter. This replaces the fixed per-goroutine politeness sleep, which
// never bounded the *aggregate* rate (N replicas each sleeping
// independently still hit the site at N times the configured pace).
//
// The layer retries nothing. The connector below it retries 429s, 5xx
// blips and timed-out requests within one budget of
// formclient.MaxAttempts attempts per request, holding the admission
// slot while it waits out a 429's Retry-After, and a fault it gives up
// on reaches the caller as formclient.ErrRateLimited or
// formclient.ErrTransient.
package queryexec
