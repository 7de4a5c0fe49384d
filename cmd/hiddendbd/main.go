// Command hiddendbd serves a simulated hidden database behind a
// conjunctive web form interface — the stand-in for a live site like
// Google Base. Point cmd/hdsampler (or any scraper) at it.
//
// Usage:
//
//	hiddendbd -addr :8080 -dataset vehicles -n 50000 -k 1000 -counts approx -rate 50
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/pprofserve"
	"hdsampler/internal/telemetry"
	"hdsampler/internal/webform"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataset   = flag.String("dataset", "vehicles", "dataset: vehicles | jobs | bool-iid | bool-corr | zipf")
		csvPath   = flag.String("csv", "", "serve rows from this CSV file instead of a synthetic dataset (schema inferred)")
		n         = flag.Int("n", 50000, "number of tuples")
		m         = flag.Int("m", 12, "attributes (boolean/zipf datasets)")
		seed      = flag.Int64("seed", 1, "generator seed")
		k         = flag.Int("k", 1000, "top-k display limit")
		counts    = flag.String("counts", "none", "count reporting: none | exact | approx")
		noise     = flag.Float64("noise", 0.3, "max relative error of approximate counts")
		rate      = flag.Float64("rate", 0, "per-client queries/sec (0 = unlimited)")
		burst     = flag.Int("burst", 10, "rate-limit burst")
		budget    = flag.Int64("budget", 0, "total query budget (0 = unlimited)")
		pprofAddr = flag.String("pprof", "", "listen address for net/http/pprof profiling, e.g. localhost:6061 (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat = flag.String("log-format", "text", "log output format: text | json")
	)
	flag.Parse()
	lg, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiddendbd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(lg)
	lg = lg.With("component", "hiddendbd")

	var ds *datagen.Dataset
	if *csvPath != "" {
		ds, err = loadCSV(*csvPath)
	} else {
		ds, err = makeDataset(*dataset, *m, *n, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mode, err := parseCountMode(*counts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{
		K: *k, CountMode: mode, CountNoise: *noise, NoiseSeed: uint64(*seed), QueryBudget: *budget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The interface's own observability: request counters, rate-limit
	// rejections and request latency, served on /metrics beside the form.
	reg := telemetry.NewRegistry()
	srv := webform.NewServer(db, webform.Options{
		RatePerSec: *rate, Burst: *burst, Metrics: reg,
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", srv)
	pprofserve.Start("hiddendbd", *pprofAddr)
	lg.Info("serving", "dataset", ds.Schema.Name, "tuples", db.Size(),
		"k", db.K(), "counts", mode.String(), "addr", *addr)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		lg.Error("server failed", "error", err)
		os.Exit(1)
	}
}

// loadCSV serves user data: schema and domains are inferred from the file.
func loadCSV(path string) (*datagen.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, skipped, err := datagen.FromCSV(f, datagen.CSVOptions{Name: filepath.Base(path)})
	if err != nil {
		return nil, err
	}
	if len(skipped) > 0 {
		slog.Warn("skipped constant columns", "component", "hiddendbd", "columns", strings.Join(skipped, ", "))
	}
	return ds, nil
}

func makeDataset(name string, m, n int, seed int64) (*datagen.Dataset, error) {
	switch strings.ToLower(name) {
	case "vehicles":
		return datagen.Vehicles(n, seed), nil
	case "jobs":
		return datagen.Jobs(n, seed), nil
	case "bool-iid":
		return datagen.IIDBoolean(m, n, 0.5, seed), nil
	case "bool-corr":
		return datagen.CorrelatedBoolean(m, n, 0.8, seed), nil
	case "zipf":
		doms := make([]int, m)
		for i := range doms {
			doms[i] = 8
		}
		return datagen.ZipfCategorical(doms, n, 1.0, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want vehicles, jobs, bool-iid, bool-corr, zipf)", name)
	}
}

func parseCountMode(s string) (hiddendb.CountMode, error) {
	switch strings.ToLower(s) {
	case "none":
		return hiddendb.CountNone, nil
	case "exact":
		return hiddendb.CountExact, nil
	case "approx":
		return hiddendb.CountApprox, nil
	default:
		return 0, fmt.Errorf("unknown count mode %q (want none, exact, approx)", s)
	}
}
