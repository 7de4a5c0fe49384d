// Command hdsamplerd is the HDSampler job-orchestration daemon: a
// long-running HTTP/JSON service that accepts sampling jobs against web
// form interfaces, runs them on per-job worker pools, shares query
// history across jobs per target host, enforces per-host politeness
// budgets, and checkpoints finished sample sets to disk.
//
// Usage:
//
//	hdsamplerd -addr :8099 -data ./samples -host-rate 50 -max-jobs 8
//
// Submit and watch jobs:
//
//	curl -X POST localhost:8099/jobs -d '{"url":"http://localhost:8080","n":200,"workers":4,"slider":0.85}'
//	curl localhost:8099/jobs/j-0001
//	curl localhost:8099/jobs/j-0001/samples > samples.json
//	curl -X DELETE localhost:8099/jobs/j-0001
//	curl localhost:8099/metrics
//	curl localhost:8099/debug/walks
//
// Each request to a target is retried on 429, 5xx and timeout answers
// within one budget of five attempts (formclient.MaxAttempts); a fault
// past it fails the job. SIGINT/SIGTERM shut the daemon down gracefully:
// workers drain and partial sample sets are persisted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdsampler/internal/jobsvc"
	"hdsampler/internal/pprofserve"
	"hdsampler/internal/telemetry"
)

// cacheEntryBytes converts -cache-entries into a byte budget: N entries
// cap each shared host history cache at N × cacheEntryBytes charged bytes,
// so the flag keeps meaning the memory an N-entry cache held when caches
// were capped by entry count. It is that cache's mean resident charge per
// entry, measured by replaying the svc-html benchmark's jobs in process
// (200k vehicles, k 100, no counts, slider 0.6; 8 warm-up jobs, then 100
// jobs of n = 20 through one cache capped at 1000 entries with CLOCK
// eviction, the charge read after each job): 1718 to 1935 bytes per entry
// over seeds 1–10. The least, 1718, rounded down to a multiple of 256
// gives 1536.
const cacheEntryBytes = 1536

func main() {
	var (
		addr         = flag.String("addr", ":8099", "listen address")
		dataDir      = flag.String("data", "", "checkpoint directory for finished sample sets (empty = no persistence)")
		maxJobs      = flag.Int("max-jobs", 4, "max concurrently running jobs")
		hostRate     = flag.Float64("host-rate", 0, "per-host politeness budget in queries/sec; one token admits a query, its retries and later answer pages included (0 = unlimited)")
		hostBurst    = flag.Int("host-burst", 10, "politeness token bucket capacity")
		hostInFlight = flag.Int("host-inflight", 0, "per-host fixed cap on queries in flight to the site (0 = unlimited)")
		cacheCap     = flag.Int64("cache-entries", 0, fmt.Sprintf("memory budget per shared host history cache, in units of %d charged bytes: the least mean per-entry charge of a 1000-entry cache replaying the svc-html jobs over seeds 1-10, rounded down to 256 B, so N budgets what N entries held; row-bearing answers are evicted first (0 = unlimited)", cacheEntryBytes))
		histDir      = flag.String("history-dir", "", "checkpoint directory for shared history caches: dumped on shutdown, warm-started on first use (empty = off)")
		journalDir   = flag.String("journal-dir", "", "crash-safe job journal directory: admissions fsynced before ack, progress checkpointed, interrupted jobs requeued on restart (empty = no durability)")
		ckptEvery    = flag.Duration("checkpoint-every", 2*time.Second, "mid-run progress checkpoint interval for journaled jobs (negative = admission/terminal records only)")
		compactEvery = flag.Int("journal-compact-every", 0, "journal records between snapshot+truncate compactions (0 = default 4096)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprofAddr    = flag.String("pprof", "", "listen address for net/http/pprof profiling, e.g. localhost:6060 (empty = disabled)")
		traceRate    = flag.Float64("trace-rate", 0.01, "fraction of candidate draws traced end-to-end on /debug/walks (0 = off, 1 = every walk)")
		traceBuffer  = flag.Int("trace-buffer", 128, "finished walk traces retained in the ring buffer")
		slowWalk     = flag.Duration("slow-walk", 0, "log candidate draws slower than this, e.g. 2s (0 = off)")
		slowQueries  = flag.Int("slow-walk-queries", 0, "log candidate draws spending at least this many interface queries (0 = off)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat    = flag.String("log-format", "text", "log output format: text | json")
	)
	flag.Parse()
	base, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdsamplerd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(base)
	lg := base.With("component", "hdsamplerd")
	pprofserve.Start("hdsamplerd", *pprofAddr)

	mgr, srv := newDaemon(*addr, jobsvc.Config{
		DataDir:             *dataDir,
		MaxConcurrent:       *maxJobs,
		HostRatePerSec:      *hostRate,
		HostBurst:           *hostBurst,
		HostMaxInFlight:     *hostInFlight,
		CacheMaxBytes:       *cacheCap * cacheEntryBytes,
		HistoryDir:          *histDir,
		JournalDir:          *journalDir,
		CheckpointEvery:     *ckptEvery,
		JournalCompactEvery: *compactEvery,
		TraceSampleRate:     *traceRate,
		TraceCapacity:       *traceBuffer,
		SlowWalk:            *slowWalk,
		SlowWalkQueries:     *slowQueries,
		Logger:              base,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	lg.Info("listening", "addr", *addr, "max_jobs", *maxJobs,
		"host_rate", *hostRate, "data", *dataDir, "journal", *journalDir, "trace_rate", *traceRate)

	select {
	case err := <-errc:
		lg.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	lg.Info("shutting down", "drain", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		lg.Warn("http shutdown", "error", err)
	}
	if err := mgr.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("job drain", "error", err)
	}
	lg.Info("bye")
}

// newDaemon wires the job manager and its HTTP server.
func newDaemon(addr string, cfg jobsvc.Config) (*jobsvc.Manager, *http.Server) {
	mgr := jobsvc.NewManager(cfg)
	return mgr, &http.Server{Addr: addr, Handler: jobsvc.NewHandler(mgr)}
}
