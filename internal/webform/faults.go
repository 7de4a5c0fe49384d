package webform

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// FaultConfig makes the served interface misbehave on purpose: 5xx blips
// and added latency injected deterministically from a seed, ahead of the
// query endpoints (/search, /api/search). It is the server-side
// counterpart of internal/faultform's connector wrapper: the wrapper
// exercises the layers above the wire, this exercises the real wire —
// HTML scraping, pagination, retry and backoff in formclient.HTTP —
// against a site that behaves like production on a bad day.
//
// Faults are keyed by the request's path and query, so one logical query
// blips the same way no matter which client retries it, and recover after
// Burst consecutive failures: every request eventually succeeds, which
// keeps fault-injected tests deterministic and hang-free.
type FaultConfig struct {
	// Seed drives fault membership; equal seeds misbehave identically.
	Seed int64
	// Prob5xx is the probability a (path, query) pair is blip-hit: its
	// first Burst5xx requests (default 2) answer 503 Service Unavailable.
	Prob5xx  float64
	Burst5xx int
	// Latency delays every query response (both faulted and clean) — the
	// cheap way to surface client timeout handling.
	Latency time.Duration
}

// faultState tracks per-query fault consumption.
type faultState struct {
	mu   sync.Mutex
	blip map[uint64]int
}

// maxFaultEntries bounds the consumption map of a long-running faulted
// server.
const maxFaultEntries = 1 << 16

// intercept applies the configured faults to a query request, reporting
// whether it already answered (with an error) on the server's behalf.
func (s *Server) intercept(w http.ResponseWriter, r *http.Request) bool {
	f := s.opts.Fault
	if f == nil {
		return false
	}
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.Prob5xx <= 0 {
		return false
	}
	key := fmix(uint64(f.Seed), fstr(r.URL.Path), fstr(r.URL.RawQuery))
	if float64(fmix(key, 0x5c)>>11)/float64(1<<53) >= f.Prob5xx {
		return false
	}
	burst := f.Burst5xx
	if burst <= 0 {
		burst = 2
	}
	s.faults.mu.Lock()
	n, known := s.faults.blip[key]
	hit := n < burst
	if hit {
		// Bound the consumption map the way faultform does: at the cap it
		// resets wholesale (spent bursts may replay once; the clients'
		// retry budgets absorb a burst per request), because a long-running
		// faulted server must not grow memory per distinct query forever.
		if !known && len(s.faults.blip) >= maxFaultEntries {
			clear(s.faults.blip)
		}
		s.faults.blip[key] = n + 1
	}
	s.faults.mu.Unlock()
	if !hit {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(1))
	http.Error(w, "webform: injected 503 blip", http.StatusServiceUnavailable)
	return true
}

// fstr folds a string into the fault hash.
func fstr(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fmix folds values via the splitmix64 finalizer.
func fmix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		v += 0x9E3779B97F4A7C15
		v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9
		v = (v ^ (v >> 27)) * 0x94D049BB133111EB
		h ^= v ^ (v >> 31)
	}
	return h
}
