// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload from a workload seed for a fixed time and prints,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": 140, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1 the
// run repeats the same jobs through instrumented layers and reports the
// per-layer figures instead. See README.md for the workloads, the
// metrics and how to read a traced run.
//
// Usage (from the repository root, after building the daemons):
//
//	perfbench -workload local-walk -seed 1 -seconds 40 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, options) (*report, error){
	"local-walk": runLocal,
	"svc-html":   runSvc,
}

func main() { os.Exit(run()) }

func run() int {
	// Daemons are started from this goroutine with a parent-death signal,
	// which Linux ties to the forking thread: pin the goroutine so that
	// thread lives as long as the process.
	runtime.LockOSThread()
	var (
		o       options
		seconds = flag.Int("seconds", 40, "timed phase length in seconds (the phase also runs until the ledger's 100 jobs finish)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit  = flag.String("commit", "unknown", "source revision recorded in the run info")
		cpuProf = flag.String("cpuprofile", "", "write this process's CPU profile of the whole run to `file`")
	)
	flag.StringVar(&o.workload, "workload", "", "workload: local-walk | svc-html")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: datasets and every job's seed derive from it")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the hiddendbd and hdsamplerd binaries")
	flag.StringVar(&o.stateDir, "state", ".bench_build/perfbench", "directory for per-run temp files and determinism records")
	flag.Parse()
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	drive, ok := workloads[o.workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s) and -seconds >= 1\n", workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every exit path below stops the daemons before returning.
	defer stopAll()

	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err == nil {
		o.build, err = buildID(self, filepath.Join(o.binDir, "hiddendbd"), filepath.Join(o.binDir, "hdsamplerd"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: build id: %v\n", err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	rep, err := drive(ctx, o)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.finite()
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    *seconds,
		"trace":      o.trace,
		"ledger":     ledgerJobs,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     *commit,
		"build":      o.build,
		"run_s":      time.Since(start).Seconds(),
	}
	for k, v := range rep.info {
		info[k] = v
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, rep.metrics}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runDir makes a fresh per-run temp directory under the state directory.
func runDir(o options) (string, error) {
	base := filepath.Join(o.stateDir, "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("%s-s%d-", o.workload, o.seed))
}

// removeRunDir stops the run's daemons and deletes its temp directory.
func removeRunDir(dir string) {
	stopAll()
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}
