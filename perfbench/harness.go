package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// options are the command-line settings every workload reads.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	binDir   string // prebuilt hiddendbd / hdsamplerd
	stateDir string // per-run temp dirs and determinism records
	build    string // buildID of the benchmark and daemon binaries
}

const (
	// ledgerJobs is the number of jobs every timed phase completes: the
	// window exact counts are taken over, and enough jobs that at least
	// 10 lie beyond the p90.
	ledgerJobs = 100
	// setupReps set-ups per untraced run; setup_s is their median.
	setupReps = 3
)

// setups is the number of set-ups a run performs: a traced run reports no
// setup_s, so it sets up once.
func (o options) setups() int {
	if o.trace {
		return 1
	}
	return setupReps
}

// jobSeed derives job i's seed from the workload seed (splitmix64), so
// every run with one seed replays the same jobs.
func jobSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// warmupIndex offsets warm-up jobs' indexes, so their seeds never repeat a
// timed job's.
const warmupIndex = 1_000_000

// jobOutcome is one job as the caller saw it.
type jobOutcome struct {
	idx        int
	latency    time.Duration
	samples    int   // accepted samples returned (and checked)
	queries    int64 // interface queries the sampler issued
	candidates int64
	wire       int64 // wire calls the job caused; -1 when not separable
	err        error // error, non-completed state or failed check

	// Service-path phases (svc-html only).
	submit, queue, run, fetch time.Duration
	jobID                     string
}

// jobFunc runs job idx for a caller.
type jobFunc func(ctx context.Context, caller, idx int) jobOutcome

// phase is one timed closed loop: every job it started has finished.
type phase struct {
	jobs []jobOutcome // by index
	wall time.Duration
}

// runPhase drives `callers` closed-loop callers over jobs 0, 1, 2, ...
// until at least minJobs jobs have started and dur has passed; it returns
// once every started job has finished.
func runPhase(ctx context.Context, callers int, dur time.Duration, minJobs int, job jobFunc) phase {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []jobOutcome
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= minJobs && time.Since(t0) >= dur {
					return
				}
				o := job(ctx, c, i)
				o.idx = i
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	return phase{jobs: outs, wall: time.Since(t0)}
}

// timed runs one timed phase of --seconds (and at least the ledger) under
// a meter of the process set, and adds its jobs to the report.
func timed(ctx context.Context, o options, rep *report, callers int, ps procSet, job jobFunc) (phase, reading, error) {
	m, err := startMeter(ps)
	if err != nil {
		return phase{}, reading{}, err
	}
	ph := runPhase(ctx, callers, o.seconds, ledgerJobs, job)
	rd, err := m.stop()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return ph, rd, err
	}
	rep.countPhase(ph)
	phases, _ := rep.info["phases"].([]map[string]any)
	rep.info["phases"] = append(phases, map[string]any{
		"jobs": len(ph.jobs), "wall_s": ph.wall.Seconds(), "steal_ratio": rd.steal,
	})
	return ph, rd, nil
}

// checkDeterminism runs job 0 again, which must bill what it billed in
// the phase, and compares the phase's ledger with the one earlier runs of
// this workload and seed recorded with the same build. It returns the
// ledger.
func checkDeterminism(ctx context.Context, o options, rep *report, ph phase, job jobFunc) ledgerTotals {
	led, err := ph.ledger(ledgerJobs)
	if err != nil {
		rep.fail("%v", err)
		return led
	}
	first, again := ph.jobs[0], job(ctx, 0, 0)
	if again.err != nil || again.queries != first.queries || again.wire != first.wire {
		rep.fail("determinism: job 0 run again billed %d queries / %d wire (err %v), in the phase %d / %d",
			again.queries, again.wire, again.err, first.queries, first.wire)
	}
	if err := determinism(o.stateDir, recordKey(o.workload, o.seed, o.build), led); err != nil {
		rep.fail("%v", err)
	}
	return led
}

// sameLedger fails the run when the traced phase billed the ledger jobs
// differently from the untraced phase: the instrumented stack must do the
// same work.
func (r *report) sameLedger(tp phase, want ledgerTotals) {
	if got, err := tp.ledger(ledgerJobs); err != nil || got != want {
		r.fail("traced phase billed ledger %+v (err %v), untraced %+v", got, err, want)
	}
}

// totals sums candidates and queries over the phase's jobs.
func (p phase) totals() (candidates float64, queries int64) {
	for _, j := range p.jobs {
		candidates += float64(j.candidates)
		queries += j.queries
	}
	return candidates, queries
}

// failed counts jobs that errored.
func (p phase) failed() int {
	n := 0
	for _, j := range p.jobs {
		if j.err != nil {
			n++
		}
	}
	return n
}

// firstErr returns the first failed job's error in a phase.
func firstErr(p phase) error {
	for _, j := range p.jobs {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// samples totals accepted samples of successful jobs.
func (p phase) samples() int {
	n := 0
	for _, j := range p.jobs {
		if j.err == nil {
			n += j.samples
		}
	}
	return n
}

// latenciesMS lists job latencies; a failed job counts as missing every
// latency limit (+Inf).
func (p phase) latenciesMS() []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = float64(j.latency.Nanoseconds()) / 1e6
		if j.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// ledgerTotals sums the first n jobs by index: the window every run
// completes, so its counts repeat exactly for a seed.
type ledgerTotals struct {
	Jobs    int   `json:"jobs"`
	Samples int64 `json:"samples"`
	Queries int64 `json:"queries"`
	Wire    int64 `json:"wire"` // -1 when jobs' wire calls are not separable
}

func (p phase) ledger(n int) (ledgerTotals, error) {
	t := ledgerTotals{Jobs: n}
	if len(p.jobs) < n {
		return t, fmt.Errorf("phase finished %d jobs, ledger needs %d", len(p.jobs), n)
	}
	for _, j := range p.jobs[:n] {
		if j.err != nil {
			return t, fmt.Errorf("ledger job %d failed: %w", j.idx, j.err)
		}
		t.Samples += int64(j.samples)
		t.Queries += j.queries
		if j.wire < 0 || t.Wire < 0 {
			t.Wire = -1
		} else {
			t.Wire += j.wire
		}
	}
	return t, nil
}

// procSet is the set of processes a workload charges CPU and memory to:
// this process when it runs the sampler itself, or the daemons.
type procSet struct {
	self    bool
	daemons []*daemon
}

// cpu is the summed user+system CPU time of the set.
func (s procSet) cpu() (time.Duration, error) {
	var t time.Duration
	if s.self {
		t = selfCPU()
	}
	for _, d := range s.daemons {
		c, err := pidCPU(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", d.name, err)
		}
		t += c
	}
	return t, nil
}

// peakRSSMB sums VmHWM over the set.
func (s procSet) peakRSSMB() (float64, error) {
	var kb int64
	if s.self {
		k, err := peakRSSKB(0)
		if err != nil {
			return 0, err
		}
		kb = k
	}
	for _, d := range s.daemons {
		k, err := peakRSSKB(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", d.name, err)
		}
		kb += k
	}
	return float64(kb) / 1024, nil
}

// meter brackets a timed phase: CPU of the process set, host steal, and
// this process's allocation counters.
type meter struct {
	procs procSet
	cpu0  time.Duration
	host0 cpuTimes
	mem0  runtime.MemStats
	self0 time.Duration
}

func startMeter(ps procSet) (*meter, error) {
	m := &meter{procs: ps}
	runtime.ReadMemStats(&m.mem0)
	var err error
	m.cpu0, err = ps.cpu()
	m.self0 = selfCPU()
	m.host0 = readCPUTimes()
	return m, err
}

// reading is what a meter saw over a phase.
type reading struct {
	cpu        time.Duration // process set
	selfCPU    time.Duration // this process
	steal      float64
	allocBytes uint64 // this process
	numGC      uint32 // this process
}

func (m *meter) stop() (reading, error) {
	host1 := readCPUTimes()
	cpu1, err := m.procs.cpu()
	self1 := selfCPU()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	return reading{
		cpu:        cpu1 - m.cpu0,
		selfCPU:    self1 - m.self0,
		steal:      stealRatio(m.host0, host1),
		allocBytes: mem1.TotalAlloc - m.mem0.TotalAlloc,
		numGC:      mem1.NumGC - m.mem0.NumGC,
	}, err
}

// setupMedian runs setup reps times, calling teardown (untimed) after all
// but the last, and returns the median set-up time in seconds with every
// set-up's time.
func setupMedian(reps int, setup func() error, teardown func()) (float64, []float64, error) {
	var ts []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, ts, err
		}
		ts = append(ts, time.Since(t).Seconds())
		if r < reps-1 {
			teardown()
		}
	}
	return median(ts), ts, nil
}

// endToEnd computes the end-to-end metrics every workload reports.
type endToEnd struct {
	setupS           float64
	samplesPerS      float64
	jobP50, jobP90   float64
	queriesPerSample float64
	wirePerSample    float64
	cpuMSPerSample   float64
	peakRSSMB        float64
}

func (e endToEnd) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":            {e.setupS, "s"},
		"samples_per_s":      {e.samplesPerS, "1/s"},
		"job_p50_ms":         {e.jobP50, "ms"},
		"job_p90_ms":         {e.jobP90, "ms"},
		"queries_per_sample": {e.queriesPerSample, "1"},
		"wire_per_sample":    {e.wirePerSample, "1"},
		"cpu_ms_per_sample":  {e.cpuMSPerSample, "ms"},
		"peak_rss_mb":        {e.peakRSSMB, "MB"},
	}
}

// baseEndToEnd fills the metrics common to every workload from a phase,
// its meter reading, the set-up time and the ledger; wire_per_sample
// comes from the workload.
func baseEndToEnd(p phase, r reading, ps procSet, setupS float64, led ledgerTotals) (endToEnd, error) {
	e := endToEnd{setupS: setupS, queriesPerSample: ratio(float64(led.Queries), float64(led.Samples))}
	n := float64(p.samples())
	if n == 0 {
		return e, fmt.Errorf("phase accepted no samples")
	}
	lat := p.latenciesMS()
	e.samplesPerS = n / p.wall.Seconds()
	e.jobP50 = nearestRank(lat, 0.5)
	p90, err := tailPercentile(lat, 0.9)
	if err != nil {
		return e, fmt.Errorf("job latency: %w", err)
	}
	e.jobP90 = p90
	e.cpuMSPerSample = float64(r.cpu.Nanoseconds()) / 1e6 / n
	e.peakRSSMB, err = ps.peakRSSMB()
	return e, err
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildID hashes the given files: the benchmark and daemon binaries. A
// change to the sampler legitimately changes a seed's counts, so a
// determinism record holds only for the build that wrote it.
func buildID(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hash %s: %w", p, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// recordKey names the determinism record of a workload, seed and build.
func recordKey(workload string, seed int64, build string) string {
	return fmt.Sprintf("%s-s%d-l%d-%s", workload, seed, ledgerJobs, build)
}

// determinism compares a ledger with the one an earlier run recorded
// under the same key (workload, seed, ledger size and build) in the state
// directory, and records it when none exists. Query counts must repeat
// exactly, and so must wire counts where jobs' wire calls are separable.
func determinism(stateDir, key string, t ledgerTotals) error {
	dir := filepath.Join(stateDir, "determinism")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev ledgerTotals
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
		if prev != t {
			return fmt.Errorf("determinism: ledger %+v differs from an earlier run's %+v (%s)", t, prev, path)
		}
		return nil
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	tmp := path + fmt.Sprintf(".%d.tmp", os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
