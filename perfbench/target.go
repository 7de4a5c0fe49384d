package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// targetSpec is the hidden database a service-path workload serves.
type targetSpec struct {
	rows   int
	k      int
	counts hiddendb.CountMode
}

// dataset regenerates the target's rows from the workload seed, exactly
// as hiddendbd generates them.
func (t targetSpec) dataset(seed int64) *datagen.Dataset { return datagen.Vehicles(t.rows, seed) }

// replayDB builds an in-process copy of the target (same rows and
// configuration) for the traced run's replay.
func (t targetSpec) replayDB(ds *datagen.Dataset, seed int64) (*hiddendb.DB, error) {
	return hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: t.k, CountMode: t.counts, NoiseSeed: uint64(seed)})
}

// target is a running hiddendbd.
type target struct {
	d     *daemon
	url   string
	pprof string // "" unless traced
}

// startTarget launches hiddendbd on a free loopback port and waits until
// it serves.
func startTarget(ctx context.Context, o options, t targetSpec, dir string) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr, "-dataset", "vehicles", "-n", strconv.Itoa(t.rows),
		"-k", strconv.Itoa(t.k), "-counts", t.counts.String(),
		"-seed", strconv.FormatInt(o.seed, 10), "-log-level", "warn",
	}
	tg := &target{url: "http://" + addr}
	if o.trace {
		if tg.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-pprof", tg.pprof)
	}
	tg.d, err = startDaemon("hiddendbd", filepath.Join(o.binDir, "hiddendbd"), args, dir)
	if err != nil {
		return nil, err
	}
	if err := tg.d.waitReady(ctx, tg.url+"/metrics", 60*time.Second); err != nil {
		return nil, err
	}
	return tg, nil
}

// daemonSnap is one daemon's counters at a point in time.
type daemonSnap struct {
	cpu time.Duration
	mem goMem
	met promSet
}

// snapDaemon reads a daemon's CPU, and — when it has a pprof listener —
// its allocation totals, plus its /metrics exposition.
func snapDaemon(ctx context.Context, c *http.Client, d *daemon, metricsURL, pprof string) (daemonSnap, error) {
	var s daemonSnap
	var err error
	if s.cpu, err = pidCPU(d.pid()); err != nil {
		return s, fmt.Errorf("%s cpu: %w", d.name, err)
	}
	if pprof != "" {
		if s.mem, err = daemonMem(ctx, c, pprof); err != nil {
			return s, fmt.Errorf("%s memstats: %w", d.name, err)
		}
	}
	if s.met, err = scrape(ctx, c, metricsURL); err != nil {
		return s, fmt.Errorf("%s metrics: %w", d.name, err)
	}
	return s, nil
}

// processDelta fills a daemon's per-sample process metrics from two
// snapshots.
func processDelta(v map[string]float64, proc string, a, b daemonSnap, samples float64) {
	processFigures(v, proc, b.cpu-a.cpu, b.mem.TotalAlloc-a.mem.TotalAlloc, b.mem.NumGC-a.mem.NumGC, samples)
}
