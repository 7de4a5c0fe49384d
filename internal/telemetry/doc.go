// Package telemetry is the sampling stack's instrumentation layer: walk
// traces, latency histograms, and the metrics registry behind every
// /metrics endpoint. It is deliberately stdlib-only and imported by the
// core packages (core, history, queryexec), so it must never import them
// back.
//
// # Zero-alloc design
//
// The package is built so that *compiled-in but disabled* instrumentation
// costs nothing measurable on the walk hot path:
//
//   - Every instrument is nil-safe. A nil *Histogram, *Counter, *Tracer,
//     *WalkTrace or *WalkObserver accepts every method call as a no-op, so
//     instrumented code never branches on "is telemetry configured" — it
//     just calls, and the nil receiver check folds into a couple of
//     instructions.
//   - Traces travel by context. TraceFrom is a single ctx.Value lookup
//     (a pointer comparison per context link, no allocation); when no walk
//     is being traced the lookup misses and every downstream mark is a
//     no-op on a nil *WalkTrace. WithTrace — the only allocating step — runs
//     solely for the sampled fraction of walks.
//   - Histograms are lock-free: ~40 log₂-spaced buckets of atomic
//     counters indexed by bits.Len64 of the sample's nanoseconds. Observe
//     is a handful of atomic adds and never allocates.
//   - WalkTraces are pooled. The Tracer recycles traces through a
//     sync.Pool and a fixed-capacity ring buffer, so steady-state tracing
//     allocates only when a trace's level slice first grows.
//   - Expensive reads happen only on sampled walks: per-level latency
//     and cache-lookup timing are taken only when the walk carries a
//     trace.
//
// The contract is enforced by AllocsPerRun ceilings in alloc_test.go and
// by BenchmarkTelemetryOverhead at the repo root, which drives the full
// end-to-end walk benchmark with the observer absent versus installed at
// a 1% sampling rate.
package telemetry
