// Package scenario is the correctness workload of the system: a matrix
// runner that sweeps dataset shapes × adversarial interface fault
// profiles × sampler configurations and measures, per cell, whether the
// sampler stayed *unbiased* (chi-square and KS gates against the exact
// selection distribution computed by internal/exact) and *live* (the
// requested samples arrive — no deadlock, no silent sample loss — while
// faultform injects 429 bursts, 5xx blips, top-k jitter, reordering and
// rounded counts into the interface).
//
// Every cell runs the full production stack — replicas, each running the
// one draw loop (core.Draw) on its own goroutine, over a shared history
// cache over the query-execution layer (coalescing, AIMD admission,
// transient retry) over the faulted connector — so the matrix
// exercises exactly the code paths a live deployment uses. Bias is gated
// only on fault-free cells: content faults (jitter, reordering)
// legitimately change the reachable distribution; there the matrix
// asserts liveness and records the drift.
//
// cmd/hdbench exposes the matrix as `hdbench -matrix`, emitting the
// machine-readable Report; CI runs it nightly as the bias-regression
// gate.
package scenario
