// Command hdbench regenerates every table and figure of the HDSampler
// reproduction (`hdbench -list` names them; the README shows how to run
// them), plus the extension exhibits (e.g. "weighted": Horvitz–Thompson
// weighting against rejection). CI runs `hdbench -json` at small scale on
// every PR and archives the report, so the perf trajectory of the hot
// paths is recorded per change.
//
// -matrix switches to the adversarial scenario matrix (internal/scenario):
// dataset shapes × interface fault profiles × sampler configs, with
// chi-square/KS bias gates against the exact distribution on fault-free
// cells and liveness gates everywhere. The nightly CI workflow runs it at
// full scale and archives the JSON report.
//
// Usage:
//
//	hdbench                      # run everything at full scale
//	hdbench -scale small         # quick pass
//	hdbench -run figure4,tradeoff
//	hdbench -json BENCH_PR1.json # also record results as JSON
//	hdbench -matrix -scale full -seed 42 -json MATRIX.json
//	hdbench -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"hdsampler"
	"hdsampler/internal/datagen"
	"hdsampler/internal/experiments"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/scenario"
	"hdsampler/internal/telemetry"
)

// benchReport is the machine-readable run record -json writes, so the
// perf trajectory (BENCH_*.json) can be compared across PRs.
type benchReport struct {
	GeneratedAt time.Time        `json:"generated_at"`
	Scale       string           `json:"scale"`
	Results     []benchResult    `json:"results"`
	Telemetry   *telemetryReport `json:"telemetry,omitempty"`
}

// telemetryReport is the instrumented reference draw recorded alongside
// the experiment results: whole-walk latency quantiles from the telemetry
// histograms plus a handful of fully traced walks, so each archived
// BENCH_*.json also tracks what the observability layer itself measures.
type telemetryReport struct {
	Samples     int                   `json:"samples"`
	Walk        telemetry.Summary     `json:"walk_latency"`
	TracedWalks int64                 `json:"traced_walks"`
	Traces      []telemetry.TraceView `json:"traces,omitempty"`
}

// telemetrySnapshot runs a small fully-traced reference draw over an
// in-process vehicles database through the production stack (history
// cache + execution layer) and packages the telemetry it produced.
func telemetrySnapshot(seed int64) (*telemetryReport, error) {
	const n = 150
	ds := datagen.Vehicles(20000, seed)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 1000})
	if err != nil {
		return nil, err
	}
	walkHist := &telemetry.Histogram{}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Rate: 1, Seed: uint64(seed), Capacity: 64})
	ctx := context.Background()
	s, err := hdsampler.New(ctx, hdsampler.LocalConn(db), hdsampler.Config{
		Seed: seed, Slider: 0.9, K: 1000, UseHistory: true, ShuffleOrder: true,
		Obs: &telemetry.WalkObserver{Tracer: tracer, Duration: walkHist},
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := s.Draw(ctx, n); err != nil {
		return nil, err
	}
	traces := tracer.Dump()
	if len(traces) > 5 {
		traces = traces[len(traces)-5:]
	}
	return &telemetryReport{
		Samples:     n,
		Walk:        walkHist.Snapshot().Summary(),
		TracedWalks: tracer.Stats().Finished,
		Traces:      traces,
	}, nil
}

type benchResult struct {
	ID      string               `json:"id"`
	Title   string               `json:"title"`
	Seconds float64              `json:"seconds"`
	Metrics map[string]safeFloat `json:"metrics,omitempty"`
	Error   string               `json:"error,omitempty"`
}

// safeFloat marshals non-finite values as JSON strings instead of letting
// encoding/json abort mid-stream: a single +Inf metric (e.g. an infinite
// queries-per-sample from a degenerate cell) used to kill the encoder
// halfway through the file, leaving a truncated, unparseable report
// exactly when an experiment failed — the run whose record matters most.
type safeFloat float64

// MarshalJSON implements json.Marshaler.
func (f safeFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both forms.
func (f *safeFloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = safeFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf":
		*f = safeFloat(math.Inf(1))
	case "-Inf":
		*f = safeFloat(math.Inf(-1))
	case "NaN":
		*f = safeFloat(math.NaN())
	default:
		return fmt.Errorf("hdbench: bad metric value %q", s)
	}
	return nil
}

// safeMetrics converts an experiment's metric map.
func safeMetrics(m map[string]float64) map[string]safeFloat {
	if m == nil {
		return nil
	}
	out := make(map[string]safeFloat, len(m))
	for k, v := range m {
		out[k] = safeFloat(v)
	}
	return out
}

func main() {
	var (
		scaleF  = flag.String("scale", "full", "experiment sizing: small | full")
		runF    = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		jsonF   = flag.String("json", "", "also write results (metrics + timings) to this JSON file")
		matrixF = flag.Bool("matrix", false, "run the adversarial scenario matrix instead of the experiments")
		seedF   = flag.Int64("seed", 42, "matrix seed (with -matrix): equal seeds replay identically")
	)
	flag.Parse()

	if *list {
		for _, e := range allExperiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	var scale experiments.Scale
	switch strings.ToLower(*scaleF) {
	case "small":
		scale = experiments.ScaleSmall
	case "full":
		scale = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleF)
		os.Exit(2)
	}

	if *matrixF {
		os.Exit(runMatrix(scale, *seedF, *jsonF))
	}

	var selected []experiments.Experiment
	if *runF == "all" {
		selected = allExperiments()
	} else {
		for _, id := range strings.Split(*runF, ",") {
			e, ok := experimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	report := benchReport{GeneratedAt: time.Now().UTC(), Scale: strings.ToLower(*scaleF)}
	failed := 0
	ctx := context.Background()
	for _, e := range selected {
		start := time.Now()
		tbl, err := e.Run(ctx, scale)
		res := benchResult{ID: e.ID, Title: e.Title, Seconds: time.Since(start).Seconds()}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			res.Error = err.Error()
			if tbl != nil {
				res.Metrics = safeMetrics(tbl.Metrics)
			}
			report.Results = append(report.Results, res)
			failed++
			continue
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s took %.1fs)\n\n", e.ID, res.Seconds)
		res.Metrics = safeMetrics(tbl.Metrics)
		report.Results = append(report.Results, res)
	}
	if *jsonF != "" {
		tele, err := telemetrySnapshot(*seedF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry snapshot: %v\n", err)
			failed++
		} else {
			report.Telemetry = tele
			fmt.Fprintf(os.Stderr, "telemetry: %d draws traced, walk p50=%.3fms p99=%.3fms max=%.3fms\n",
				tele.TracedWalks, tele.Walk.P50MS, tele.Walk.P99MS, tele.Walk.MaxMS)
		}
		if err := writeReport(*jsonF, &report); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonF, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runMatrix executes the scenario matrix, emits the JSON report (stdout,
// plus the -json file when given) and returns the exit code: non-zero
// when any cell lost samples or a fault-free cell failed its bias gate.
func runMatrix(scale experiments.Scale, seed int64, jsonPath string) int {
	cfg := scenario.Config{Seed: seed}
	if scale == experiments.ScaleFull {
		cfg.SamplesPerCell = 1200
		cfg.Datasets = scenario.DefaultDatasets(false)
	}
	rep, err := scenario.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matrix: %v\n", err)
		return 1
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		verdict := "ok"
		switch {
		case !c.OK():
			verdict = "FAIL"
		case !c.BiasGated:
			verdict = "live"
		}
		fmt.Fprintf(os.Stderr, "%-10s %-8s %-8s acc=%4d/%-4d chi2p=%-9.3g ks=%.3f q/s=%-6.1f retried=%-3d faults=%-4d %s\n",
			c.Dataset, c.Fault, c.Sampler, c.Accepted, c.Requested, c.ChiP, c.KS,
			c.QueriesPerSample, c.QueriesRetried, c.Faults.Total(), verdict)
	}
	if err := emitJSON(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "matrix: %v\n", err)
		return 1
	}
	if jsonPath != "" {
		if err := writeJSONFile(jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", jsonPath, err)
			return 1
		}
	}
	if fs := rep.Failures(); len(fs) > 0 {
		fmt.Fprintf(os.Stderr, "matrix: %d of %d cells FAILED:\n", len(fs), len(rep.Cells))
		for _, f := range fs {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "matrix: all %d cells passed (grid %dx%dx%d, seed %d)\n",
		len(rep.Cells), rep.Grid[0], rep.Grid[1], rep.Grid[2], rep.Seed)
	return 0
}

// writeReport saves the run record as indented JSON, atomically: the
// record is fully marshalled in memory first (safeFloat keeps non-finite
// metrics encodable) and lands under a temp name renamed into place, so a
// half-written file can never be mistaken for a report — partial failures
// were precisely when the old streaming encoder produced garbage.
func writeReport(path string, report *benchReport) error {
	return writeJSONFile(path, report)
}

// emitJSON writes v as indented JSON after a full in-memory marshal.
func emitJSON(w *os.File, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// writeJSONFile atomically replaces path with v's indented JSON.
func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
