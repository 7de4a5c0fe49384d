package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"hdsampler"
	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/history"
)

// local-walk: the library path in process. One DB of 1M vehicles (top-k
// 1000, no counts) behind formclient.Local; each job is a fresh
// hdsampler.New with the CLI defaults, then Draw(200), back to back on one
// goroutine.
const (
	localRows   = 1_000_000
	localK      = 1000
	localN      = 200
	localSlider = 0.85
)

// gcPacer runs the collector between local-walk jobs instead of during
// them. Marking the DB's ~240 MB live heap takes about 100 ms, and left to
// itself the collector started a cycle every ~1.2 s, inside about one job
// in six, making that job up to 60% slower: job_p90_ms then sat on the edge
// between jobs a cycle hit and jobs it missed, and moved by half between
// runs. With automatic collection off, the pacer keeps the default GOGC=100
// target at job boundaries: before a job it collects when the heap could
// pass twice the live heap during the job. Collections then number about
// as many as the collector's own, still follow the bytes the jobs
// allocate, and count in samples_per_s and cpu_ms_per_sample, but not in
// job latency.
type gcPacer struct {
	s       []metrics.Sample
	maxJob  uint64 // most bytes one job has allocated
	allocs0 uint64
	cycles  int // collections run
}

// startGCPacer turns automatic collection off until the returned function
// runs. A memory limit stays as a safety net.
func startGCPacer() (*gcPacer, func()) {
	s := make([]metrics.Sample, 3)
	for i, name := range []string{"/gc/heap/allocs:bytes", "/gc/heap/live:bytes", "/memory/classes/heap/objects:bytes"} {
		s[i].Name = name
	}
	gcPercent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(3 << 30)
	return &gcPacer{s: s}, func() {
		debug.SetGCPercent(gcPercent)
		debug.SetMemoryLimit(limit)
	}
}

func (g *gcPacer) read() (allocs, live, heap uint64) {
	metrics.Read(g.s)
	return g.s[0].Value.Uint64(), g.s[1].Value.Uint64(), g.s[2].Value.Uint64()
}

// before runs ahead of a job.
func (g *gcPacer) before() {
	if _, live, heap := g.read(); heap+g.maxJob >= 2*live {
		runtime.GC()
		g.cycles++
	}
	g.allocs0, _, _ = g.read()
}

// after runs when a job returns.
func (g *gcPacer) after() {
	allocs, _, _ := g.read()
	g.maxJob = max(g.maxJob, allocs-g.allocs0)
}

func localConfig(seed int64) hdsampler.Config {
	return hdsampler.Config{
		Method:       hdsampler.MethodRandomWalk,
		Seed:         seed,
		Slider:       localSlider,
		SliderSet:    true,
		K:            localK,
		ShuffleOrder: true,
		UseHistory:   true,
	}
}

func runLocal(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	var db *hiddendb.DB
	var ds *datagen.Dataset
	setupS, setups, err := setupMedian(o.setups(), func() error {
		ds = datagen.Vehicles(localRows, o.seed)
		var err error
		db, err = hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: localK, CountMode: hiddendb.CountNone})
		return err
	}, func() { db, ds = nil, nil })
	if err != nil {
		return nil, fmt.Errorf("local-walk set-up: %w", err)
	}
	ix := newRowIndex(ds.Schema, ds.Tuples)
	ds = nil
	rep.info["setup_runs_s"] = setups
	rep.info["dataset"] = map[string]any{"name": "vehicles", "rows": localRows, "k": localK, "counts": "none"}

	// One goroutine draws, so the DB's served-query counter brackets
	// exactly one job's wire calls.
	gc, stopPacer := startGCPacer()
	defer stopPacer()
	job := func(ctx context.Context, _ int, i int) jobOutcome {
		gc.before()
		defer gc.after()
		t0 := time.Now()
		w0 := db.QueriesServed()
		s, err := hdsampler.New(ctx, hdsampler.LocalConn(db), localConfig(jobSeed(o.seed, i)))
		if err != nil {
			return jobOutcome{latency: time.Since(t0), wire: -1, err: err}
		}
		tuples, st, err := s.Draw(ctx, localN)
		return drawOutcome(t0, tuples, st, err, ix, localN, db.QueriesServed()-w0)
	}
	ps := procSet{self: true}
	ph, rd, err := timed(ctx, o, rep, 1, ps, job)
	if err != nil {
		return nil, err
	}
	rep.info["gc_cycles"] = gc.cycles
	led := checkDeterminism(ctx, o, rep, ph, job)
	if !o.trace {
		e, err := baseEndToEnd(ph, rd, ps, setupS, led)
		if err != nil {
			return nil, err
		}
		e.wirePerSample = ratio(float64(led.Wire), float64(led.Samples))
		rep.metrics = e.metrics()
		return rep, nil
	}

	// Traced phase: the same jobs through the stack hdsampler.New builds
	// (Local conn → history.Cache → walker), assembled by hand with span
	// decorators between the layers.
	st := newStackTrace()
	tjob := func(ctx context.Context, _ int, i int) jobOutcome {
		gc.before()
		defer gc.after()
		t0 := time.Now()
		w0 := db.QueriesServed()
		bottom := &spanConn{inner: formclient.NewLocal(db), rec: st.rec, layer: layerConn, rootLen: -1, record: true}
		cache := history.New(bottom, history.Options{})
		top := &spanConn{inner: cache, rec: st.rec, layer: layerCache, rootLen: 1}
		cfg := localConfig(jobSeed(o.seed, i))
		cfg.UseHistory = false
		s, err := hdsampler.New(ctx, top, cfg)
		if err != nil {
			return jobOutcome{latency: time.Since(t0), wire: -1, err: err}
		}
		dctx, end := st.rec.begin(ctx, layerDraw)
		tuples, stats, err := s.Draw(dctx, localN)
		end()
		st.add(top, bottom, stats, cache)
		return drawOutcome(t0, tuples, stats, err, ix, localN, db.QueriesServed()-w0)
	}
	tp, trd, err := timed(ctx, o, rep, 1, ps, tjob)
	if err != nil {
		return nil, err
	}
	rep.sameLedger(tp, led)
	// The replay, like the jobs, runs with collections paced between
	// queries, so none runs inside a timed Execute and freed memory is
	// reused as it was live.
	rs, err := replay(db, st.queries, "", gc.before)
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	times := selfTimes(st.rec.snapshot())
	samples := float64(tp.samples())
	coreSelf := st.coreAndHistory(v, times, tp)
	setReplay(v, rs)
	processFigures(v, "bench", trd.selfCPU, trd.allocBytes, trd.numGC, samples)
	v["host.steal_ratio"] = trd.steal
	v["trace.overhead_ratio"] = overheadRatio(tp, ph)
	// Caller time = walk outside the cache + cache self + DB executes as
	// timed live by the bottom decorator (formclient.Local itself adds
	// only a counter increment). The replay's mean is no substitute here:
	// back to back, with warm CPU caches and another heap state, it read
	// from 20% below to 25% above the live calls' mean.
	explained := us(coreSelf) + us(times.Self[layerCache]) + us(times.Total[layerConn])
	v["trace.unexplained_ratio"] = 1 - ratio(explained, us(tp.sumLatency()))
	rep.setLayers(v)
	rep.info["replayed_queries"] = rs.Queries
	rep.info["live_execute_us_mean"] = ratio(us(times.Total[layerConn]), float64(times.Calls[layerConn]))
	return rep, nil
}
