package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"hdsampler"
	"hdsampler/internal/core"
	"hdsampler/internal/formclient"
	"hdsampler/internal/history"
	"hdsampler/internal/jobq"
	"hdsampler/internal/metrics"
	"hdsampler/internal/queryexec"
	"hdsampler/internal/store"
	"hdsampler/internal/telemetry"
)

// Config tunes a Manager.
type Config struct {
	// DataDir, when set, receives one JSON checkpoint per finished job
	// (<id>.json, a store.SampleSet) — including partial sets of failed
	// and cancelled jobs. Empty disables persistence.
	DataDir string
	// MaxConcurrent bounds simultaneously running jobs; the rest queue.
	// Default 4.
	MaxConcurrent int
	// HostRatePerSec is the per-host politeness budget: all jobs hitting
	// one host together send at most this many queries per second to the
	// connectors. The meter admits one token per query; a connector's
	// retries and a paginated answer's later pages ride on that
	// admission. 0 disables throttling.
	HostRatePerSec float64
	// HostBurst is the politeness token bucket capacity (default 10).
	HostBurst int
	// HostMaxInFlight is a fixed cap on the queries in flight to each
	// host's connectors. 0 disables concurrency limiting.
	HostMaxInFlight int
	// CacheMaxBytes caps the charged bytes of each shared per-host
	// history cache (0 = unlimited).
	CacheMaxBytes int64
	// HistoryDir, when set, checkpoints each shared per-host history
	// cache there on shutdown (and periodically, piggybacked on journal
	// checkpoints) and warm-starts new caches from matching checkpoints,
	// so a restarted daemon does not re-pay query bills the previous run
	// already paid. Empty disables history persistence.
	HistoryDir string
	// JournalDir, when set, enables the crash-safe job journal: every
	// admission is fsynced before Submit acknowledges it, running jobs
	// checkpoint progress under a lease epoch, and a restarted manager
	// replays the journal — terminal jobs reappear in the table, and
	// interrupted jobs are requeued and resumed under a fresh epoch.
	// A journal disk failure degrades the manager to memory-only
	// operation (surfaced on Health and /metrics), never fails jobs.
	// Empty disables durability.
	JournalDir string
	// CheckpointEvery is the interval between mid-run progress
	// checkpoints journaled for each running job (default 2s; negative
	// disables mid-run checkpoints, leaving admission/terminal records).
	CheckpointEvery time.Duration
	// JournalCompactEvery overrides the journal's snapshot+truncate
	// compaction cadence in records (0 = jobq default).
	JournalCompactEvery int
	// Client overrides the HTTP client used for target connectors
	// (timeouts, proxies, test servers).
	Client *http.Client
	// TraceSampleRate is the fraction of candidate draws traced end to end
	// (per-level queries, cache and execution outcomes, latencies) and
	// exposed on /debug/walks. 0 disables tracing; 1 traces every walk.
	TraceSampleRate float64
	// TraceCapacity is the finished-trace ring buffer size (default 128).
	TraceCapacity int
	// SlowWalk, when positive, logs (and counts) candidate draws that take
	// at least this long.
	SlowWalk time.Duration
	// SlowWalkQueries, when positive, logs (and counts) candidate draws
	// that spend at least this many interface queries.
	SlowWalkQueries int
	// Logger receives the manager's structured log output; nil uses
	// slog.Default.
	Logger *slog.Logger
}

// logger resolves the configured structured logger.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// Manager owns the job table, the per-host connector stacks and the run
// slots. It is safe for concurrent use by the HTTP layer.
type Manager struct {
	cfg Config
	sem chan struct{}
	lg  *slog.Logger

	// Telemetry: the unified metrics registry behind /metrics, the walk
	// tracer behind /debug/walks, and the shared latency histograms the
	// per-host stacks and per-job observers record into.
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	wireHist  *telemetry.HistogramVec // wire RTT by host
	execHist  *telemetry.HistogramVec // execution-layer latency by host
	cacheHist *telemetry.HistogramVec // cache lookup latency by host
	walkHist  *telemetry.HistogramVec // whole-walk duration by job
	slowWalks *telemetry.Counter

	// journal is the crash-safe job journal (nil without JournalDir);
	// journalBroken records a journal that failed to open at startup, so
	// health can say "durability configured but unavailable".
	journal       *jobq.Journal
	journalBroken bool

	// histMu throttles the periodic history dumps piggybacked on journal
	// checkpoints (dumpHistory walks every cache; once per few seconds is
	// plenty for a kill-9 warm start).
	histMu       sync.Mutex
	lastHistDump time.Time

	mu     sync.Mutex
	seq    int
	jobs   map[string]*job
	order  []string
	hosts  map[string]*hostEntry
	closed bool
	wg     sync.WaitGroup
}

// hostEntry keeps a host's targets and the options every stack on the
// host is built with: the shared admission limiter (rate meter + fixed
// concurrency cap), the host's registry-backed wire, execution and cache
// lookup histograms, and the cache cap.
type hostEntry struct {
	host string
	exec queryexec.Options
	hist history.Options

	mu      sync.Mutex
	targets map[string]*target // by base URL, the checkpoint identity
}

// target is one base URL: the HTML connector every job on that URL draws
// through, with its 429 retry lane, and one hdsampler.Stack over it per
// history mode. Jobs sharing a target and a mode share that stack's
// cache; every stack on a host shares the host's admission limiter.
type target struct {
	base   *formclient.HTTP
	stacks map[historyMode]*hdsampler.Stack
}

// historyMode picks a job's stack on its target: no history, or a cache
// that distrusts or trusts counts (the two infer differently, so they
// never share a cache).
type historyMode int

const (
	historyOff historyMode = iota
	historyUntrusted
	historyTrusted
)

func (s Spec) historyMode() historyMode {
	switch {
	case s.NoHistory:
		return historyOff
	case s.TrustCounts:
		return historyTrusted
	}
	return historyUntrusted
}

// job is the manager's internal job record.
type job struct {
	id   string
	spec Spec
	host string

	ctx    context.Context
	cancel context.CancelFunc
	cache  *history.Cache // its stack's shared cache (nil with NoHistory)

	// Journal-replay base: progress a previous run (earlier lease epoch)
	// already paid for, adopted at restore time and folded into every
	// view, checkpoint and the terminal sample set. Written only before
	// the run goroutine starts, so reads need no lock.
	resumed     bool
	baseStats   hdsampler.Stats
	baseSchema  *hdsampler.Schema
	baseTuples  []hdsampler.Tuple
	baseReaches []float64
	baseBills   []int64
	baseC       float64

	mu         sync.Mutex
	state      State
	created    time.Time
	started    time.Time
	finished   time.Time
	epoch      int64 // current journal lease epoch (0 = never leased)
	rs         *hdsampler.ReplicaSet
	crawler    *core.Crawler
	savedAt0   int64
	finalStats hdsampler.Stats
	err        error
	set        *store.SampleSet
	checkpoint string
	cancelled  bool
}

// NewManager builds a manager; call Shutdown before discarding it. With
// JournalDir set it replays the journal first: terminal jobs reappear in
// the table and interrupted jobs are requeued under a fresh lease epoch.
// A journal that cannot open degrades the manager to memory-only
// operation (loudly) rather than failing construction.
func NewManager(cfg Config) *Manager {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2 * time.Second
	}
	m := &Manager{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		lg:    cfg.logger().With("component", "jobsvc"),
		reg:   telemetry.NewRegistry(),
		jobs:  make(map[string]*job),
		hosts: make(map[string]*hostEntry),
	}
	m.tracer = telemetry.NewTracer(telemetry.TracerOptions{
		Rate:     cfg.TraceSampleRate,
		Capacity: cfg.TraceCapacity,
	})
	var replay *jobq.Replay
	if cfg.JournalDir != "" {
		jr, rep, err := jobq.Open(cfg.JournalDir, jobq.Options{
			CompactEvery: cfg.JournalCompactEvery,
			Logger:       m.lg,
		})
		if err != nil {
			m.journalBroken = true
			m.lg.Error("job journal unavailable; running without durability",
				"dir", cfg.JournalDir, "error", err)
		} else {
			m.journal = jr
			replay = rep
		}
	}
	m.registerMetrics()
	if replay != nil {
		m.restore(replay)
	}
	return m
}

// Registry exposes the manager's metrics registry (the /metrics source).
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Tracer exposes the manager's walk tracer (the /debug/walks source).
func (m *Manager) Tracer() *telemetry.Tracer { return m.tracer }

// Submit validates and enqueues a job, returning its initial view. The
// job starts as soon as a run slot frees up. With a journal configured,
// the admission is fsynced before Submit returns: an acknowledged job
// survives SIGKILL.
func (m *Manager) Submit(spec Spec) (View, error) {
	u, err := spec.normalize()
	if err != nil {
		return View{}, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return View{}, ErrShuttingDown
	}
	host := m.hostLocked(u.Host)
	m.seq++
	id := fmt.Sprintf("j-%04d", m.seq)
	m.mu.Unlock()

	// Journal the admission before acknowledging it — outside m.mu, the
	// fsync must not serialize the whole job table. Disk failures degrade
	// the journal internally (Admit still returns nil); the only real
	// error here is a closed journal racing shutdown.
	created := time.Now().UTC()
	if m.journal != nil {
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = m.journal.Admit(id, specJSON, created)
		}
		if jerr != nil {
			if errors.Is(jerr, jobq.ErrClosed) {
				return View{}, ErrShuttingDown
			}
			m.lg.Warn("journal admit failed", "job", id, "error", jerr)
		}
	}

	// Assemble the query stack before publishing the job, so every field
	// concurrent view() calls read is in place first.
	st := host.stackFor(spec, m.cfg)
	j := &job{
		id:      id,
		spec:    spec,
		host:    u.Host,
		cache:   st.Cache(),
		state:   StateQueued,
		created: created,
	}
	//hdlint:ignore ctxflow a job outlives the submitting request; its lifetime is bounded by cancel via Stop/Close, not by any caller context
	j.ctx, j.cancel = context.WithCancel(context.Background())

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// The admission is already journaled; record the cancellation so
		// a restart does not resurrect a job the caller was refused.
		j.cancel()
		if m.journal != nil {
			if jerr := m.journal.Terminal(id, 0, string(StateCanceled), "", "shutdown before start", nil); jerr != nil {
				m.lg.Warn("journal terminal append failed", "job", id, "error", jerr)
			}
		}
		return View{}, ErrShuttingDown
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j, spec.budget(st.Conn()))
	return j.view(), nil
}

// seqOf parses the numeric suffix of a job ID ("j-0042" → 42, ok).
func seqOf(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// restore rebuilds the job table from a journal replay: terminal jobs
// come back as read-only table entries (their sample sets lazy-load from
// the checkpoint pointer), interrupted jobs — queued or running at the
// crash — are requeued and resumed under a fresh lease epoch. Runs
// during construction, before the manager is published.
func (m *Manager) restore(rep *jobq.Replay) {
	if rep.Torn || rep.Fenced > 0 {
		m.lg.Warn("journal replay salvaged a crashed log",
			"records", rep.Records, "torn_tail", rep.Torn, "fenced", rep.Fenced)
	}
	// Replay order is commit order; concurrent submits may have committed
	// out of ID order, so re-sort for a stable table.
	jobs := append([]*jobq.JobRecord(nil), rep.Jobs...)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	for _, jr := range jobs {
		if n, ok := seqOf(jr.ID); ok && n > m.seq {
			m.seq = n
		}
		var spec Spec
		if err := json.Unmarshal(jr.Spec, &spec); err != nil {
			m.lg.Error("journaled job spec unreadable; job dropped", "job", jr.ID, "error", err)
			continue
		}
		u, err := spec.normalize()
		if err != nil {
			m.lg.Error("journaled job spec invalid; job dropped", "job", jr.ID, "error", err)
			continue
		}

		j := &job{
			id:      jr.ID,
			spec:    spec,
			host:    u.Host,
			created: jr.Created,
			started: jr.Started,
			epoch:   jr.Epoch,
		}
		if term := jr.Terminal; term != nil {
			// Terminal jobs are inert table entries: no context, no conn.
			j.state = State(term.State)
			j.finished = term.At
			j.checkpoint = term.Pointer
			if term.Err != "" {
				j.err = errors.New(term.Err)
			}
			if term.Stats != nil {
				j.finalStats = statsFromCkpt(term.Stats)
			}
			j.cancel = func() {}
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
			continue
		}

		// Interrupted job: adopt its last progress checkpoint (samples
		// already paid for resume for free) and requeue.
		j.state = StateQueued
		j.started = time.Time{}
		if jr.Ckpt != nil && spec.Method != MethodCrawl {
			j.adoptCheckpoint(jr.Ckpt, m.lg)
		}
		//hdlint:ignore ctxflow a requeued job outlives the restore; its lifetime is bounded by cancel via Cancel/Shutdown, not by any caller context
		j.ctx, j.cancel = context.WithCancel(context.Background())
		st := m.hostLocked(u.Host).stackFor(spec, m.cfg)
		j.cache = st.Cache()
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.wg.Add(1)
		m.lg.Info("requeued interrupted job from journal",
			"job", j.id, "epoch", jr.Epoch, "accepted_base", len(j.baseTuples))
		go m.run(j, spec.budget(st.Conn()))
	}
}

// adoptCheckpoint decodes a replayed progress checkpoint into the job's
// resume base. The samples payload is authoritative: if it fails to
// decode, the sample counts are dropped (the job redraws everything) but
// the query bill is kept — the interface charges already happened, and
// the accounting must stay monotone across restarts.
func (j *job) adoptCheckpoint(ck *jobq.Checkpoint, lg *slog.Logger) {
	j.resumed = true
	j.baseStats = statsFromCkpt(ck)
	j.baseBills = append([]int64(nil), ck.Bills...)
	if len(ck.Samples) == 0 {
		j.baseStats.Accepted = 0
		return
	}
	set, err := store.Read(bytes.NewReader(ck.Samples))
	var schema *hdsampler.Schema
	var tuples []hdsampler.Tuple
	var reaches []float64
	if err == nil {
		schema, err = set.DecodeSchema()
	}
	if err == nil {
		tuples, reaches, err = set.DecodeSamples()
	}
	if err != nil {
		lg.Warn("checkpoint samples unreadable; job will redraw, bill preserved",
			"job", j.id, "error", err)
		j.baseStats.Accepted = 0
		j.baseBills = nil
		return
	}
	j.baseSchema = schema
	j.baseTuples = tuples
	j.baseReaches = reaches
	j.baseC = set.C
	j.baseStats.Accepted = int64(len(tuples))
}

// ckptFromStats converts sampler stats into a journal checkpoint's
// cumulative counters.
func ckptFromStats(s hdsampler.Stats) *jobq.Checkpoint {
	return &jobq.Checkpoint{
		Accepted:       s.Accepted,
		Candidates:     s.Candidates,
		Rejected:       s.Rejected,
		Queries:        s.Queries,
		QueriesSaved:   s.QueriesSaved,
		ElapsedSeconds: s.Elapsed.Seconds(),
	}
}

// statsFromCkpt is the inverse of ckptFromStats.
func statsFromCkpt(ck *jobq.Checkpoint) hdsampler.Stats {
	return hdsampler.Stats{
		Accepted:     ck.Accepted,
		Candidates:   ck.Candidates,
		Rejected:     ck.Rejected,
		Queries:      ck.Queries,
		QueriesSaved: ck.QueriesSaved,
		Elapsed:      time.Duration(ck.ElapsedSeconds * float64(time.Second)),
	}
}

// hostLocked returns (creating on first use) the entry for host; the
// caller holds m.mu.
func (m *Manager) hostLocked(host string) *hostEntry {
	he, ok := m.hosts[host]
	if !ok {
		he = &hostEntry{
			host:    host,
			targets: make(map[string]*target),
			exec:    queryexec.Options{Wire: m.wireHist.With(host), ExecLatency: m.execHist.With(host)},
			hist:    history.Options{MaxBytes: m.cfg.CacheMaxBytes, Lookup: m.cacheHist.With(host)},
		}
		if m.cfg.HostRatePerSec > 0 || m.cfg.HostMaxInFlight > 0 {
			he.exec.Limiter = queryexec.NewLimiter(queryexec.LimiterOptions{
				MaxInFlight: m.cfg.HostMaxInFlight,
				RatePerSec:  m.cfg.HostRatePerSec,
				Burst:       m.cfg.HostBurst,
			})
		}
		m.hosts[host] = he
	}
	return he
}

// stackFor returns the stack a job draws through: the hdsampler.Stack for
// the job's history mode over its target's base conn (shared per URL). A
// stack with a cache is warm-started from its HistoryDir checkpoint, when
// one exists.
func (he *hostEntry) stackFor(spec Spec, cfg Config) *hdsampler.Stack {
	mode := spec.historyMode()

	he.mu.Lock()
	tg, ok := he.targets[spec.URL]
	if !ok {
		tg = &target{
			base:   formclient.NewHTTP(spec.URL, formclient.HTTPOptions{Client: cfg.Client}),
			stacks: make(map[historyMode]*hdsampler.Stack),
		}
		he.targets[spec.URL] = tg
	}
	st := tg.stacks[mode]
	he.mu.Unlock()
	if st != nil {
		return st
	}

	// Build — and, when configured, warm-start — the stack before
	// publishing it, so no job ever draws through a half-restored cache
	// and no stale checkpoint entry can overwrite an answer a live job
	// just paid for.
	var hist *history.Options
	if mode != historyOff {
		h := he.hist
		h.TrustCounts = mode == historyTrusted
		hist = &h
	}
	fresh := hdsampler.NewStack(tg.base, he.exec, hist)
	if c := fresh.Cache(); c != nil && cfg.HistoryDir != "" {
		warmStartCache(cfg.HistoryDir, historySource(spec.URL, mode == historyTrusted), c, cfg.logger())
	}
	he.mu.Lock()
	defer he.mu.Unlock()
	if racer, ok := tg.stacks[mode]; ok {
		return racer // a concurrent submit won; ours is discarded
	}
	tg.stacks[mode] = fresh
	return fresh
}

// historySource names one cache identity for checkpointing: the target
// URL plus the trust mode (trusted and untrusted caches infer
// differently and must not adopt each other's checkpoints).
func historySource(targetURL string, trust bool) string {
	return targetURL + "|trust=" + strconv.FormatBool(trust)
}

// historyDumpPath maps a cache identity onto its checkpoint file.
func historyDumpPath(dir, source string) string {
	h := fnv.New64a()
	h.Write([]byte(source))
	return filepath.Join(dir, fmt.Sprintf("history-%016x.json", h.Sum64()))
}

// warmStartCache best-effort restores a freshly created cache from its
// checkpoint; failures only cost the warm start, never the job.
func warmStartCache(dir, source string, cache *history.Cache, lg *slog.Logger) {
	lg = lg.With("component", "jobsvc", "source", source)
	path := historyDumpPath(dir, source)
	dump, err := store.LoadHistoryFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			lg.Warn("history warm-start failed", "path", path, "error", err)
		}
		return
	}
	if dump.Source != source {
		lg.Warn("history warm-start skipped: checkpoint identity mismatch",
			"path", path, "checkpoint_source", dump.Source)
		return
	}
	//hdlint:ignore ctxflow warm-start runs during construction, before any request context exists; the timeout is its only bound
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	n, err := cache.Restore(ctx, dump.Snapshot())
	if err != nil {
		lg.Warn("history warm-start failed", "path", path, "error", err)
		return
	}
	lg.Info("warm-started history cache", "entries", n)
}

// dumpHistory checkpoints every shared cache to HistoryDir.
func (m *Manager) dumpHistory() {
	if m.cfg.HistoryDir == "" {
		return
	}
	if err := os.MkdirAll(m.cfg.HistoryDir, 0o755); err != nil {
		m.lg.Warn("history checkpoint dir", "dir", m.cfg.HistoryDir, "error", err)
		return
	}
	m.mu.Lock()
	hes := make([]*hostEntry, 0, len(m.hosts))
	for _, he := range m.hosts {
		hes = append(hes, he)
	}
	m.mu.Unlock()
	for _, he := range hes {
		he.mu.Lock()
		type dumpTask struct {
			source string
			cache  *history.Cache
		}
		var tasks []dumpTask
		for targetURL, tg := range he.targets {
			for mode, st := range tg.stacks {
				if c := st.Cache(); c != nil {
					tasks = append(tasks, dumpTask{historySource(targetURL, mode == historyTrusted), c})
				}
			}
		}
		he.mu.Unlock()
		for _, t := range tasks {
			if t.cache.Len() == 0 {
				continue
			}
			dump := store.NewHistoryDump(t.source, t.cache.Dump())
			path := historyDumpPath(m.cfg.HistoryDir, t.source)
			if err := store.SaveHistoryFile(path, dump); err != nil {
				m.lg.Warn("history checkpoint failed", "path", path, "error", err)
			}
		}
	}
}

// run executes one job to completion; it owns the job's state machine.
func (m *Manager) run(j *job, conn formclient.Conn) {
	defer m.wg.Done()

	// Acquire a run slot; cancellation while queued finishes the job
	// without ever running it.
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-j.ctx.Done():
		j.finish(m, nil, hdsampler.Stats{}, j.ctx.Err())
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now().UTC()
	if j.cache != nil {
		j.savedAt0 = j.cache.CacheStats().Saved()
	}
	j.mu.Unlock()

	// Take the run's lease epoch: every checkpoint and the terminal
	// record carry it, so a zombie writer from a superseded run is fenced
	// at the journal.
	var epoch int64
	if m.journal != nil {
		ep, err := m.journal.Lease(j.id)
		if err != nil {
			m.lg.Warn("journal lease failed; job runs unfenced", "job", j.id, "error", err)
		} else {
			epoch = ep
			j.mu.Lock()
			j.epoch = ep
			j.mu.Unlock()
		}
	}

	if j.spec.Method == MethodCrawl {
		m.runCrawl(j, conn)
		return
	}

	// A resumed job draws only what its adopted checkpoint is missing.
	remaining := j.spec.N - len(j.baseTuples)
	if remaining <= 0 {
		set, serr := j.sampleSet(j.baseSchema, j.baseSamples(), j.baseC, j.baseStats.Queries)
		j.finish(m, set, hdsampler.Stats{}, serr)
		return
	}

	cfg := hdsampler.Config{
		Seed:         j.spec.Seed,
		C:            j.spec.C,
		K:            j.spec.K,
		ShuffleOrder: !j.spec.NoShuffle,
		// One observer per job: the duration histogram series carries the
		// job label, while the tracer, slow-walk counter and logger are the
		// daemon-wide instruments. Replicas share it (its instruments are
		// concurrency-safe).
		Obs: &telemetry.WalkObserver{
			Tracer:      m.tracer,
			Duration:    m.walkHist.With(j.id),
			SlowWalk:    m.cfg.SlowWalk,
			SlowQueries: m.cfg.SlowWalkQueries,
			SlowCount:   m.slowWalks,
			Logger:      m.lg,
			Job:         j.id,
			Host:        j.host,
		},
	}
	if j.spec.Slider != nil {
		cfg.Slider = *j.spec.Slider
		cfg.SliderSet = true
	}
	if j.spec.Method == MethodWeighted {
		cfg.Method = hdsampler.MethodCountWeighted
		cfg.UseParentCount = j.spec.TrustCounts
	}
	if epoch > 1 {
		// Resumed run: perturb the seed per epoch so the redraw explores
		// fresh walk randomness instead of replaying the crashed run's
		// prefix (which would re-pay its query bill walk for walk). The
		// first run (epoch 1) keeps the spec seed exactly.
		cfg.Seed = j.spec.Seed + (epoch-1)*1_000_003
	}
	rs, err := hdsampler.NewReplicaSet(j.ctx, conn, cfg, j.spec.Workers)
	if err != nil {
		j.finish(m, nil, hdsampler.Stats{}, err)
		return
	}
	j.mu.Lock()
	j.rs = rs
	j.mu.Unlock()

	// Journal progress periodically while the pool draws. The loop stops
	// (and is awaited) before finish, so no checkpoint can race the
	// terminal record.
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	if m.journal != nil && m.cfg.CheckpointEvery > 0 {
		go m.checkpointLoop(j, stop, ckptDone)
	} else {
		close(ckptDone)
	}

	_, stats, err := rs.Draw(j.ctx, remaining)
	close(stop)
	<-ckptDone
	set, serr := j.sampleSet(rs.Schema(), j.cumulativeSamples(rs.Samples()), rs.C(), j.baseStats.Queries+stats.Queries)
	if err == nil {
		err = serr
	}
	j.finish(m, set, stats, err)
}

// baseSamples rebuilds the resume base as sampler samples.
func (j *job) baseSamples() []hdsampler.Sample {
	out := make([]hdsampler.Sample, len(j.baseTuples))
	for i, t := range j.baseTuples {
		out[i] = hdsampler.Sample{Tuple: t, Reach: j.baseReaches[i]}
	}
	return out
}

// cumulativeSamples prepends the resume base to a live sample snapshot.
func (j *job) cumulativeSamples(live []hdsampler.Sample) []hdsampler.Sample {
	if len(j.baseTuples) == 0 {
		return live
	}
	return append(j.baseSamples(), live...)
}

// checkpointLoop journals the job's cumulative progress every
// CheckpointEvery until stopped; done closes when the loop exits.
func (m *Manager) checkpointLoop(j *job, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.checkpointOnce(j)
		}
	}
}

// checkpointOnce journals one cumulative progress checkpoint: resume
// base plus live pool progress, the per-candidate query bills, and the
// accepted samples as a serialized store.SampleSet.
func (m *Manager) checkpointOnce(j *job) {
	j.mu.Lock()
	rs, epoch, savedAt0 := j.rs, j.epoch, j.savedAt0
	j.mu.Unlock()
	if rs == nil {
		return
	}
	cum := j.cumulative(rs.Progress(), savedAt0)
	samples := rs.Samples()
	ck := ckptFromStats(cum)

	ck.Bills = append(append([]int64(nil), j.baseBills...), make([]int64, len(samples))...)
	for i, s := range samples {
		ck.Bills[len(j.baseBills)+i] = int64(s.Queries)
	}

	set, err := j.sampleSet(rs.Schema(), j.cumulativeSamples(samples), rs.C(), cum.Queries)
	if err != nil {
		m.lg.Warn("progress checkpoint skipped: sample set", "job", j.id, "error", err)
		return
	}
	if set != nil {
		var buf bytes.Buffer
		if err := set.Write(&buf); err != nil {
			m.lg.Warn("progress checkpoint skipped: encode", "job", j.id, "error", err)
			return
		}
		ck.Samples = buf.Bytes()
	}
	if err := m.journal.Checkpoint(j.id, epoch, ck); err != nil {
		m.lg.Warn("progress checkpoint rejected", "job", j.id, "error", err)
		return
	}
	// Piggyback a throttled history dump so the shared caches also
	// survive kill-9, not just graceful shutdown.
	m.maybeDumpHistory()
}

// maybeDumpHistory runs dumpHistory at most once per throttle window.
func (m *Manager) maybeDumpHistory() {
	if m.cfg.HistoryDir == "" {
		return
	}
	const every = 5 * time.Second
	m.histMu.Lock()
	if time.Since(m.lastHistDump) < every {
		m.histMu.Unlock()
		return
	}
	m.lastHistDump = time.Now()
	m.histMu.Unlock()
	m.dumpHistory()
}

// runCrawl executes a full-extraction job.
func (m *Manager) runCrawl(j *job, conn formclient.Conn) {
	start := time.Now()
	c, err := core.NewCrawler(j.ctx, conn, core.CrawlerConfig{MaxQueries: j.spec.MaxQueries})
	if err != nil {
		j.finish(m, nil, hdsampler.Stats{}, err)
		return
	}
	j.mu.Lock()
	j.crawler = c
	j.mu.Unlock()

	tuples, err := c.Run(j.ctx)
	stats := hdsampler.Stats{
		Accepted:   int64(len(tuples)),
		Candidates: int64(len(tuples)),
		Queries:    c.Queries(),
		Elapsed:    time.Since(start),
	}
	schema, serr := conn.Schema(j.ctx)
	var set *store.SampleSet
	if serr == nil {
		samples := make([]hdsampler.Sample, len(tuples))
		for i, t := range tuples {
			samples[i] = hdsampler.Sample{Tuple: t}
		}
		set, serr = j.sampleSet(schema, samples, 1, stats.Queries)
	}
	if err == nil {
		err = serr
	}
	j.finish(m, set, stats, err)
}

// sampleSet packages accepted samples as a persistable store.SampleSet;
// nil (with no error) when there are no samples to keep.
func (j *job) sampleSet(schema *hdsampler.Schema, samples []hdsampler.Sample, c float64, queries int64) (*store.SampleSet, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	tuples := make([]hdsampler.Tuple, len(samples))
	reaches := make([]float64, len(samples))
	for i, s := range samples {
		tuples[i] = s.Tuple
		reaches[i] = s.Reach
	}
	return store.New(j.spec.URL, j.spec.Method, c, schema, tuples, reaches, queries)
}

// finish checkpoints the sample set, records the terminal state and
// journals the terminal transition. The checkpoint is written before the
// terminal state is published, so a view that reads a terminal state
// already carries the checkpoint pointer.
func (j *job) finish(m *Manager, set *store.SampleSet, stats hdsampler.Stats, err error) {
	j.mu.Lock()
	stats = j.cumulative(stats, j.savedAt0)
	if set == nil && len(j.baseTuples) > 0 {
		// The sample set (when the run produced one) is already
		// cumulative; a run that died before producing a set keeps the
		// base samples.
		if base, berr := j.sampleSet(j.baseSchema, j.baseSamples(), j.baseC, j.baseStats.Queries); berr == nil {
			set = base
		}
	}
	id := j.id
	j.mu.Unlock()

	var path string
	var perr error
	if m.cfg.DataDir != "" && set != nil {
		path = filepath.Join(m.cfg.DataDir, id+".json")
		perr = os.MkdirAll(m.cfg.DataDir, 0o755)
		if perr == nil {
			perr = store.SaveFile(path, set)
		}
		if perr != nil {
			m.lg.Warn("sample checkpoint failed", "job", id, "path", path, "error", perr)
		}
	}

	j.mu.Lock()
	j.finished = time.Now().UTC()
	j.finalStats = stats
	j.set = set
	switch {
	case j.cancelled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		if err == nil || errors.Is(err, context.Canceled) {
			err = nil
		}
	case err != nil:
		j.state = StateFailed
	default:
		j.state = StateCompleted
	}
	j.err = err
	if path != "" {
		if perr != nil {
			// Keep the terminal state but surface the broken durability on
			// the view and in the daemon log.
			if j.err == nil {
				j.err = fmt.Errorf("checkpoint: %w", perr)
			}
		} else {
			j.checkpoint = path
		}
	}
	// Release the replica machinery: terminal views read finalStats and
	// j.set, and a long-running daemon must not retain every finished
	// job's replicas and their live sample slice.
	j.rs = nil
	j.crawler = nil
	j.mu.Unlock()

	// Journal the terminal transition (after persisting, so the record
	// carries the checkpoint pointer). The journal mutex is a leaf: never
	// called with j.mu or m.mu held.
	if m.journal != nil {
		j.mu.Lock()
		state, ptr, epoch, fs := j.state, j.checkpoint, j.epoch, j.finalStats
		var errMsg string
		if j.err != nil {
			errMsg = j.err.Error()
		}
		j.mu.Unlock()
		if jerr := m.journal.Terminal(id, epoch, string(state), ptr, errMsg, ckptFromStats(fs)); jerr != nil {
			m.lg.Warn("journal terminal append failed", "job", id, "error", jerr)
		}
	}
	m.maybeDumpHistory()
}

// cumulative turns a run's progress into the job's: QueriesSaved is read
// from the job's stack (its cache's savings since the run started at
// savedAt0), and the journal-replay base an earlier epoch already paid
// for is folded in (zero unless resumed), so views, checkpoints and the
// terminal record never regress below what the journal committed.
func (j *job) cumulative(run hdsampler.Stats, savedAt0 int64) hdsampler.Stats {
	if j.cache != nil {
		run.QueriesSaved = j.cache.CacheStats().Saved() - savedAt0
	}
	b := j.baseStats
	run.Accepted += b.Accepted
	run.Candidates += b.Candidates
	run.Rejected += b.Rejected
	run.Queries += b.Queries
	run.QueriesSaved += b.QueriesSaved
	run.Elapsed += b.Elapsed
	return run
}

// view snapshots the job, folding in live pool progress while running.
func (j *job) view() View {
	j.mu.Lock()
	v := View{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	v.Checkpoint = j.checkpoint
	v.Epoch = j.epoch
	rs, crawler := j.rs, j.crawler
	terminal := j.state.Terminal()
	stats := j.finalStats
	savedAt0 := j.savedAt0
	started := j.started
	j.mu.Unlock()

	switch {
	case terminal:
	case rs != nil:
		stats = j.cumulative(rs.Progress(), savedAt0)
	case crawler != nil:
		stats = hdsampler.Stats{Queries: crawler.Queries()}
		if !started.IsZero() {
			stats.Elapsed = time.Since(started)
		}
	case j.resumed:
		// Requeued after a crash, not yet running: show the replayed base
		// so the committed progress never disappears from the API.
		stats = j.baseStats
	}
	v.Accepted = stats.Accepted
	v.Candidates = stats.Candidates
	v.Rejected = stats.Rejected
	v.Queries = stats.Queries
	v.QueriesSaved = stats.QueriesSaved
	if stats.Candidates > 0 {
		v.AcceptanceRate = float64(stats.Accepted) / float64(stats.Candidates)
	}
	v.ElapsedSeconds = stats.Elapsed.Seconds()
	return v
}

// Jobs lists every job in submission order.
func (m *Manager) Jobs() []View {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]View, len(js))
	for i, j := range js {
		out[i] = j.view()
	}
	return out
}

// Job returns one job's snapshot.
func (m *Manager) Job(id string) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	return j.view(), nil
}

// Cancel stops a queued or running job; cancelling a terminal job is a
// no-op. The job transitions to canceled once its workers drain.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
	return j.view(), nil
}

// SampleSet returns a job's samples as a persistable set: the final set
// for terminal jobs, a live snapshot for running ones.
func (m *Manager) SampleSet(id string) (*store.SampleSet, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	set, rs := j.set, j.rs
	terminal := j.state.Terminal()
	ptr := j.checkpoint
	j.mu.Unlock()
	if terminal {
		if set == nil && ptr != "" {
			// A journal-restored terminal job keeps only the checkpoint
			// pointer; load (and cache) the set on first request.
			loaded, err := store.LoadFile(ptr)
			if err != nil {
				return nil, fmt.Errorf("jobsvc: load checkpoint %s: %w", ptr, err)
			}
			j.mu.Lock()
			if j.set == nil {
				j.set = loaded
			}
			set = j.set
			j.mu.Unlock()
			return set, nil
		}
		if set == nil {
			return nil, ErrNoSamples
		}
		return set, nil
	}
	if rs == nil {
		return nil, ErrNoSamples
	}
	live, err := j.sampleSet(rs.Schema(), rs.Samples(), rs.C(), rs.Progress().Queries)
	if err != nil {
		return nil, err
	}
	if live == nil {
		return nil, ErrNoSamples
	}
	return live, nil
}

// HostStats aggregates one host's shared-infrastructure counters.
type HostStats struct {
	Host string `json:"host"`
	// Issued / ExactHits / Inferred / Evictions sum the host's history
	// caches.
	Issued    int64 `json:"issued"`
	ExactHits int64 `json:"exact_hits"`
	Inferred  int64 `json:"inferred"`
	Evictions int64 `json:"evictions"`
	// Entries is the total cached query count and Bytes their charged
	// bytes; Throttled counts the wire requests the admission limiter had
	// to delay for the politeness budget.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Throttled int64 `json:"throttled"`
	// RateLimitRetries counts the requests the host's connectors repeated
	// after the site's 429 pushback, TransientRetries those repeated after
	// transient interface faults.
	RateLimitRetries int64 `json:"rate_limit_retries"`
	TransientRetries int64 `json:"transient_retries"`
	// InFlight snapshots the host's admission controller: the queries
	// currently admitted to the connectors.
	InFlight int `json:"in_flight"`
	// ShardBalance summarizes per-shard entry counts across the host's
	// caches: CV 0 means the shards carry identical load.
	ShardBalance metrics.Summary `json:"shard_balance"`
}

// Saved is the host's total query-history savings.
func (h HostStats) Saved() int64 { return h.ExactHits + h.Inferred }

// Hosts reports per-host cache and politeness stats, sorted by host.
func (m *Manager) Hosts() []HostStats {
	m.mu.Lock()
	hes := make([]*hostEntry, 0, len(m.hosts))
	for _, he := range m.hosts {
		hes = append(hes, he)
	}
	m.mu.Unlock()
	out := make([]HostStats, 0, len(hes))
	for _, he := range hes {
		hs := HostStats{Host: he.host}
		if l := he.exec.Limiter; l != nil {
			hs.Throttled = l.Waits()
			hs.InFlight = l.InFlight()
		}
		var shardLoads []float64
		he.mu.Lock()
		caches := make([]*history.Cache, 0, len(he.targets))
		for _, tg := range he.targets {
			// A target's stacks share its base conn, whose retries are
			// counted once.
			bs := tg.base.Stats()
			hs.RateLimitRetries += bs.RateLimitRetries
			hs.TransientRetries += bs.TransientRetries
			for _, st := range tg.stacks {
				if c := st.Cache(); c != nil {
					caches = append(caches, c)
				}
			}
		}
		he.mu.Unlock()
		for _, c := range caches {
			cs := c.CacheStats()
			hs.Issued += cs.Issued
			hs.ExactHits += cs.ExactHits
			hs.Inferred += cs.Inferred
			hs.Evictions += cs.Evictions
			for _, ss := range c.ShardStats() {
				hs.Entries += ss.Entries
				hs.Bytes += ss.Bytes
				shardLoads = append(shardLoads, float64(ss.Entries))
			}
		}
		hs.ShardBalance = metrics.Summarize(shardLoads)
		out = append(out, hs)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Host < out[k].Host })
	return out
}

// Health summarizes the manager's durability state for /healthz.
type Health struct {
	// Status is "ok", or "degraded" when configured durability is not
	// actually protecting jobs (journal failed to open or lost its disk).
	Status string `json:"status"`
	// Journal is "off" (no JournalDir), "ok", "degraded" (disk failure,
	// memory-only since), or "unavailable" (failed to open at startup).
	Journal string `json:"journal"`
	// JournalStats carries the live journal counters when a journal is
	// running.
	JournalStats *jobq.Stats `json:"journal_stats,omitempty"`
	// Jobs is the job-table size; Draining reports shutdown in progress.
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
}

// Health reports the manager's durability health.
func (m *Manager) Health() Health {
	m.mu.Lock()
	jobs, closed := len(m.jobs), m.closed
	m.mu.Unlock()
	h := Health{Status: "ok", Journal: "off", Jobs: jobs, Draining: closed}
	if m.journalBroken {
		h.Status = "degraded"
		h.Journal = "unavailable"
	}
	if m.journal != nil {
		st := m.journal.Stats()
		h.JournalStats = &st
		if st.Degraded {
			h.Status = "degraded"
			h.Journal = "degraded"
		} else {
			h.Journal = "ok"
		}
	}
	return h
}

// JournalStats snapshots the journal counters (zero value without a
// journal), for /metrics.
func (m *Manager) JournalStats() jobq.Stats {
	if m.journal == nil {
		return jobq.Stats{}
	}
	return m.journal.Stats()
}

// Shutdown stops accepting jobs, cancels everything queued or running and
// waits (bounded by ctx) for the workers to drain; partial sample sets
// are persisted by each job's normal finish path, and each cancellation
// is journaled as a terminal transition — a gracefully stopped job is
// not requeued on restart, only a killed one is.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.cancelled = true
		}
		j.mu.Unlock()
		j.cancel()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		m.dumpHistory()
	case <-ctx.Done():
		// Checkpoint what we can even on an overrun drain; Dump is safe
		// while stragglers still write.
		m.dumpHistory()
		err = fmt.Errorf("jobsvc: shutdown: %w", ctx.Err())
	}
	if m.journal != nil {
		// After the drain every terminal record is in; stragglers past an
		// overrun deadline lose their terminal append (logged) and are
		// requeued on restart — the safe direction.
		if cerr := m.journal.Close(); cerr != nil {
			m.lg.Warn("journal close", "error", cerr)
		}
	}
	return err
}
