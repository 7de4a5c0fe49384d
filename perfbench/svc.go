package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/jobsvc"
	"hdsampler/internal/store"
)

// svc-html: the service path, the paper's deployment. hiddendbd serves
// 200k vehicles (top-k 100, no counts); hdsamplerd runs with a job
// journal, sample-set checkpoints and a capped per-host history cache. One
// client POSTs a uniform HTML job (n=20, 1 worker, slider 0.6), polls it,
// then fetches its samples.
const (
	svcN      = 20
	svcSlider = 0.6
	// svcClients is one: the two daemons then use about one of the two
	// cores, so CPU stolen by the host stretches job latency in proportion
	// instead of queueing jobs behind each other. With two clients they
	// used about 1.5 cores, and a run with 20% steal read 60% slower.
	svcClients = 1
	// svcCacheEntries caps the shared host cache below the run's working
	// set, so a timed phase sees hits and evictions at a steady ratio.
	svcCacheEntries = 1000
	// svcWarmup jobs, run as the timed phase runs them, fill the cache to
	// its cap before timing starts.
	svcWarmup = 8
	// svcPoll is the job-status poll interval, short next to job p50.
	svcPoll = 20 * time.Millisecond
	// svcTraceBuffer retains every walk of a traced phase.
	svcTraceBuffer = 16384
)

var svcTarget = targetSpec{rows: 200_000, k: 100, counts: hiddendb.CountNone}

// service is one running hiddendbd + hdsamplerd pair.
type service struct {
	tg    *target
	d     *daemon
	base  string // hdsamplerd URL
	pprof string // "" unless traced
}

func startService(ctx context.Context, o options, dir string, traced bool) (*service, error) {
	oo := o
	oo.trace = traced
	tg, err := startTarget(ctx, oo, svcTarget, dir)
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	// Durability as deployed: the journal fsyncs every admission and
	// terminal transition, and every finished sample set is saved with
	// fsync+rename under -data.
	args := []string{
		"-addr", addr,
		"-data", filepath.Join(dir, "data"),
		"-journal-dir", filepath.Join(dir, "journal"),
		"-cache-entries", strconv.Itoa(svcCacheEntries),
		"-log-level", "warn",
	}
	s := &service{tg: tg, base: "http://" + addr}
	if traced {
		if s.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-pprof", s.pprof, "-trace-rate", "1", "-trace-buffer", strconv.Itoa(svcTraceBuffer))
	}
	if s.d, err = startDaemon("hdsamplerd", filepath.Join(o.binDir, "hdsamplerd"), args, dir); err != nil {
		return nil, err
	}
	if err := s.d.waitReady(ctx, s.base+"/readyz", 60*time.Second); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *service) stop() {
	if s != nil {
		stopDaemons(s.d, s.tg.d)
	}
}

// svcJob runs one job through the REST API: POST, poll to a terminal
// state, fetch the samples and check them.
func svcJob(ctx context.Context, c *http.Client, s *service, ix *rowIndex, seed int64) jobOutcome {
	t0 := time.Now()
	slider := svcSlider
	spec := jobsvc.Spec{URL: s.tg.url, N: svcN, Workers: 1, Slider: &slider, K: svcTarget.k, Seed: seed}
	out := jobOutcome{wire: -1}
	fail := func(err error) jobOutcome {
		out.latency = time.Since(t0)
		out.err = err
		return out
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return fail(err)
	}
	var v jobsvc.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fail(fmt.Errorf("submit: %s: %v", resp.Status, err))
	}
	out.submit = time.Since(t0)
	out.jobID = v.ID
	for !v.State.Terminal() {
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(svcPoll):
		}
		b, err := httpGet(ctx, c, s.base+"/jobs/"+v.ID)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			return fail(fmt.Errorf("job view: %w", err))
		}
	}
	out.queries, out.candidates = v.Queries, v.Candidates
	if v.Started != nil && v.Finished != nil {
		out.queue = v.Started.Sub(v.Created)
		out.run = v.Finished.Sub(*v.Started)
	}
	if v.State != jobsvc.StateCompleted {
		return fail(fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error))
	}
	t1 := time.Now()
	b, err := httpGet(ctx, c, s.base+"/jobs/"+v.ID+"/samples")
	if err != nil {
		return fail(err)
	}
	out.fetch = time.Since(t1)
	set, err := store.Read(bytes.NewReader(b))
	if err != nil {
		return fail(fmt.Errorf("sample set: %w", err))
	}
	tuples, _, err := set.DecodeSamples()
	if err != nil {
		return fail(fmt.Errorf("sample set: %w", err))
	}
	out.samples = len(tuples)
	out.latency = time.Since(t0)
	out.err = ix.checkSamples(tuples, svcN)
	return out
}

func runSvc(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	ds := svcTarget.dataset(o.seed)
	ix := newRowIndex(ds.Schema, ds.Tuples)
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	defer removeRunDir(dir)
	rep.info["dataset"] = map[string]any{"name": "vehicles", "rows": svcTarget.rows, "k": svcTarget.k, "counts": "none"}
	rep.info["cache_entries"] = svcCacheEntries

	c := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer c.CloseIdleConnections()
	var s *service
	jobs := func(offset int) jobFunc {
		return func(ctx context.Context, _ int, i int) jobOutcome {
			return svcJob(ctx, c, s, ix, jobSeed(o.seed, offset+i))
		}
	}
	// up sets up one service: daemons, readiness, and the fixed warm-up
	// that fills the shared cache to its cap.
	n := 0
	up := func(traced bool) error {
		sd := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		n++
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		var err error
		if s, err = startService(ctx, o, sd, traced); err != nil {
			return err
		}
		warm := runPhase(ctx, svcClients, 0, svcWarmup, jobs(warmupIndex))
		if n := warm.failed(); n > 0 {
			return fmt.Errorf("warm-up: %d of %d jobs failed: %v", n, len(warm.jobs), firstErr(warm))
		}
		return ctx.Err()
	}
	setupS, setups, err := setupMedian(o.setups(), func() error { return up(false) }, func() { s.stop() })
	if err != nil {
		return nil, fmt.Errorf("svc-html set-up: %w", err)
	}
	rep.info["setup_runs_s"] = setups

	ps := procSet{daemons: []*daemon{s.d, s.tg.d}}
	before, err := scrape(ctx, c, s.tg.url+"/metrics")
	if err != nil {
		return nil, err
	}
	ph, rd, err := timed(ctx, o, rep, svcClients, ps, jobs(0))
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c, s.tg.url+"/metrics")
	if err != nil {
		return nil, err
	}
	led := checkDeterminism(ctx, o, rep, ph, jobs(0))
	if !o.trace {
		e, err := baseEndToEnd(ph, rd, ps, setupS, led)
		if err != nil {
			return nil, err
		}
		wire := func(p promSet) float64 { return p.sum("webform_requests_total", "endpoint", "search") }
		e.wirePerSample = ratio(wire(after)-wire(before), float64(ph.samples()))
		rep.metrics = e.metrics()
		return rep, nil
	}

	// Traced phase: a fresh service with walk tracing on every draw and
	// pprof listeners, warmed the same way, replays the same jobs.
	s.stop()
	if err := up(true); err != nil {
		return nil, fmt.Errorf("svc-html traced set-up: %w", err)
	}
	snap := func() (daemonSnap, daemonSnap, error) {
		a, err := snapDaemon(ctx, c, s.d, s.base+"/metrics", s.pprof)
		if err != nil {
			return a, daemonSnap{}, err
		}
		b, err := snapDaemon(ctx, c, s.tg.d, s.tg.url+"/metrics", s.tg.pprof)
		return a, b, err
	}
	sd0, tg0, err := snap()
	if err != nil {
		return nil, err
	}
	tp, trd, err := timed(ctx, o, rep, svcClients, procSet{daemons: []*daemon{s.d, s.tg.d}}, jobs(0))
	if err != nil {
		return nil, err
	}
	sd1, tg1, err := snap()
	if err != nil {
		return nil, err
	}
	wb, err := httpGet(ctx, c, s.base+"/debug/walks")
	if err != nil {
		return nil, err
	}
	rep.sameLedger(tp, led)
	var dump jobsvc.WalkDump
	if err := json.Unmarshal(wb, &dump); err != nil {
		return nil, fmt.Errorf("walk dump: %w", err)
	}
	ids := map[string]bool{}
	for _, j := range tp.jobs {
		ids[j.jobID] = true
	}
	wt := summarizeWalks(dump, ids, ds.Schema)
	rdb, err := svcTarget.replayDB(ds, o.seed)
	if err != nil {
		return nil, err
	}
	rs, err := replay(rdb, wt.wireQueries, "/search", nil)
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	samples := float64(tp.samples())
	cands, queries := tp.totals()
	var submit, queue, run, fetch []float64
	var shell time.Duration // caller time outside the run: submit, queueing, fetch
	for _, j := range tp.jobs {
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(j.queue))
		run = append(run, ms(j.run))
		fetch = append(fetch, ms(j.fetch))
		shell += j.submit + j.queue + j.fetch
	}
	delta := func(name string) float64 { return sd1.met.sum(name) - sd0.met.sum(name) }
	hist := func(a, b promSet, name string) hist { return b.histogram(name).sub(a.histogram(name)) }
	execH := hist(sd0.met, sd1.met, "hdsamplerd_host_exec_latency_seconds")
	wireH := hist(sd0.met, sd1.met, "hdsamplerd_host_wire_rtt_seconds")
	lookH := hist(sd0.met, sd1.met, "hdsamplerd_host_cache_lookup_seconds")
	handler := hist(tg0.met, tg1.met, "webform_request_seconds")
	webSelf := handler.meanUS() - rs.ExecuteMeanUS

	v["core.queries_per_candidate"] = ratio(float64(queries), cands)
	v["core.walks_per_candidate"] = wt.walksPerCandidate()
	v["core.accept_ratio"] = ratio(samples, cands)
	v["core.self_us_per_sample"] = wt.selfUSPerCandidate() * ratio(cands, samples)
	v["history.lookups_per_sample"] = ratio(delta("hdsamplerd_host_cache_issued_total")+delta("hdsamplerd_host_cache_saved_total"), samples)
	v["history.hit_ratio"] = ratio(wt.hits, wt.lookups)
	v["history.infer_ratio"] = ratio(wt.inferred, wt.lookups)
	v["history.self_us_per_lookup"] = lookH.meanUS()
	v["history.evictions_per_ksample"] = ratio(delta("hdsamplerd_host_cache_evictions_total")*1000, samples)
	v["queryexec.coalesced_ratio"] = ratio(delta("hdsamplerd_host_exec_coalesced_total"), execH.Count)
	v["queryexec.self_us_per_query"] = ratio((execH.Sum-wireH.Sum)*1e6, execH.Count)
	v["formclient.self_us_per_call"] = ratio((wireH.Sum-handler.Sum)*1e6, wireH.Count)
	v["formclient.resp_kb_per_call"] = rs.RespBytes / 1024
	v["webform.self_us_per_request"] = webSelf
	setReplay(v, rs)
	v["jobsvc.submit_ms_p50"] = median(submit)
	v["jobsvc.queue_ms_p50"] = median(queue)
	v["jobsvc.run_ms_p50"] = median(run)
	v["jobsvc.fetch_ms_p50"] = median(fetch)
	v["jobq.fsyncs_per_job"] = ratio(delta("hdsamplerd_journal_fsyncs_total"), float64(len(tp.jobs)))
	processFigures(v, "bench", trd.selfCPU, trd.allocBytes, trd.numGC, samples)
	processDelta(v, "hdsamplerd", sd0, sd1, samples)
	processDelta(v, "hiddendbd", tg0, tg1, samples)
	v["host.steal_ratio"] = trd.steal
	v["trace.overhead_ratio"] = overheadRatio(tp, ph)
	// Caller time = service shell + walk outside the cache + cache lookup
	// + exec self + connector self + handler self + replayed DB executes.
	explained := us(shell) + wt.selfUSPerCandidate()*cands + lookH.Sum*1e6 +
		(execH.Sum-wireH.Sum)*1e6 + (wireH.Sum-handler.Sum)*1e6 + (webSelf+rs.ExecuteMeanUS)*handler.Count
	v["trace.unexplained_ratio"] = 1 - ratio(explained, us(tp.sumLatency()))
	rep.setLayers(v)
	rep.info["replayed_queries"] = rs.Queries
	rep.info["traced_walks"] = wt.walks
	return rep, nil
}

// walkSummary condenses hdsamplerd's walk traces of one phase.
type walkSummary struct {
	walks, restarts         float64 // traced candidate draws and their dead ends
	selfUS                  float64 // draw time outside the cache, summed
	lookups, hits, inferred float64
	wireQueries             []hiddendb.Query
}

func (w walkSummary) walksPerCandidate() float64  { return ratio(w.walks+w.restarts, w.walks) }
func (w walkSummary) selfUSPerCandidate() float64 { return ratio(w.selfUS, w.walks) }

// summarizeWalks reads the traces of the given jobs: per-draw time
// outside connector calls, cache outcomes, and the queries that reached
// the wire (rebuilt from each walk's accumulated predicates).
func summarizeWalks(dump jobsvc.WalkDump, jobs map[string]bool, schema *hiddendb.Schema) walkSummary {
	var s walkSummary
	for _, t := range dump.Walks {
		if !jobs[t.Job] || t.Err != "" {
			continue
		}
		s.walks++
		s.restarts += float64(t.Restarts)
		inside := 0.0
		walk := -1
		var preds []hiddendb.Predicate
		for _, lv := range t.Levels {
			inside += lv.LatencyUS
			if lv.Walk != walk {
				walk, preds = lv.Walk, preds[:0]
			}
			preds = append(preds, hiddendb.Predicate{Attr: lv.Attr, Value: lv.Value})
			switch lv.Cache {
			case "hit":
				s.hits++
			case "infer-ancestor", "infer-empty", "infer-sibling":
				s.inferred++
			}
			if lv.Cache != "" && lv.Cache != "none" {
				s.lookups++
			}
			if lv.Exec == "wire" {
				if q, err := hiddendb.NewQuery(preds...); err == nil && q.ValidateAgainst(schema) == nil {
					s.wireQueries = append(s.wireQueries, q)
				}
			}
		}
		s.selfUS += t.Duration*1000 - inside
	}
	return s
}
