// Command benchgate turns a benchmark comparison into a CI verdict: it
// compares the median ns/op of named benchmarks between a base run and a
// head run and fails when a benchmark regressed beyond the threshold —
// unless the measurements are too noisy to trust, in which case it
// downgrades to an advisory note (a flaky runner must not block merges,
// but a real 15% walk-path regression must). A gated benchmark that is
// missing from either side is always a hard failure: a silently skipped
// or renamed benchmark would otherwise pass the gate forever.
//
// The base side is either another `go test -bench` output (-base) or a
// checked-in JSON baseline (-baseline, see BENCH_baseline.json at the
// repo root). Baselines are maintained with the tool itself:
//
//	# gate head.txt against the checked-in baseline
//	benchgate -baseline BENCH_baseline.json -head head.txt \
//	    -bench BenchmarkWalkEndToEnd,BenchmarkExecuteIntersect \
//	    -threshold 15 -noise 10
//
//	# refresh the baseline from a new measurement run
//	benchgate -baseline BENCH_baseline.json -head head.txt \
//	    -bench BenchmarkWalkEndToEnd,BenchmarkExecuteIntersect -update
//
//	# render the baseline as a markdown table (README "Benchmarks")
//	benchgate -baseline BENCH_baseline.json -render
//
// Exit status: 0 (pass or advisory), 1 (confident regression or missing
// gated benchmark), 2 (usage).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// baselineFile is the JSON schema of a checked-in baseline: raw ns/op
// samples per benchmark (medians and spreads are recomputed at gate
// time, so the gate and the render always agree with the data).
type baselineFile struct {
	// Note records how the samples were produced, for humans reading
	// the diff when the file is regenerated.
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string][]float64 `json:"benchmarks"`
}

func main() {
	var (
		baseF      = flag.String("base", "", "base-branch benchmark output file (`go test -bench` text)")
		baselineF  = flag.String("baseline", "", "checked-in JSON baseline file (alternative base side; also the -update/-render target)")
		headF      = flag.String("head", "", "head benchmark output file")
		benchF     = flag.String("bench", "", "comma-separated benchmark names to gate; a name also covers its sub-benchmarks (BenchmarkExecuteIntersect gates .../none and .../exact separately)")
		thresholdF = flag.Float64("threshold", 15, "fail when median ns/op regresses more than this percentage")
		noiseF     = flag.Float64("noise", 10, "advisory-only when either side's spread (half the inter-quartile range over the median) exceeds this percentage")
		minN       = flag.Int("min-samples", 3, "advisory-only when either side has fewer samples than this")
		updateF    = flag.Bool("update", false, "rewrite -baseline from the -head samples (filtered to -bench when given) instead of gating")
		renderF    = flag.Bool("render", false, "print -baseline as a markdown table and exit")
		noteF      = flag.String("note", "", "provenance note stored in the baseline on -update")
	)
	flag.Parse()
	if *renderF {
		if *baselineF == "" {
			fmt.Fprintln(os.Stderr, "benchgate: -render requires -baseline")
			os.Exit(2)
		}
		bl, err := loadBaseline(*baselineF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		renderMarkdown(os.Stdout, bl)
		return
	}
	if *headF == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -head is required")
		os.Exit(2)
	}
	head, err := parseFile(*headF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if *updateF {
		if *baselineF == "" {
			fmt.Fprintln(os.Stderr, "benchgate: -update requires -baseline")
			os.Exit(2)
		}
		if err := writeBaseline(*baselineF, head, *benchF, *noteF); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if (*baseF == "") == (*baselineF == "") || *benchF == "" {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -base/-baseline, plus -head and -bench, are required")
		os.Exit(2)
	}
	var base map[string][]float64
	if *baselineF != "" {
		bl, err := loadBaseline(*baselineF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		base = bl.Benchmarks
	} else {
		base, err = parseFile(*baseF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	failed := 0
	for _, name := range strings.Split(*benchF, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		// A gated name covers itself plus its sub-benchmarks
		// (BenchmarkExecuteIntersect matches .../none and .../exact), each
		// gated on its own samples — pooling sub-benchmarks of different
		// magnitudes into one median would hide regressions in the mix.
		keys := expand(name, base, head)
		if len(keys) == 0 {
			keys = []string{name}
		}
		for _, key := range keys {
			v := verdict(key, base[key], head[key], *thresholdF, *noiseF, *minN)
			fmt.Println(v.String())
			if v.fail {
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed or went missing\n", failed)
		os.Exit(1)
	}
}

// loadBaseline reads and validates a JSON baseline.
func loadBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bl.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: baseline has no benchmarks", path)
	}
	return &bl, nil
}

// writeBaseline filters head's samples to the gated names (all of head
// when names is empty) and rewrites the baseline file.
func writeBaseline(path string, head map[string][]float64, names, note string) error {
	keep := head
	if names != "" {
		keep = make(map[string][]float64)
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			keys := expand(name, head, nil)
			if len(keys) == 0 {
				return fmt.Errorf("-update: gated benchmark %s has no samples in %d parsed head benchmarks", name, len(head))
			}
			for _, key := range keys {
				keep[key] = head[key]
			}
		}
	}
	bl := baselineFile{Note: note, Benchmarks: keep}
	data, err := json.MarshalIndent(&bl, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// renderMarkdown prints the baseline as the README's benchmark table.
func renderMarkdown(w *os.File, bl *baselineFile) {
	keys := make([]string, 0, len(bl.Benchmarks))
	for key := range bl.Benchmarks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "| Benchmark | median | spread | samples |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, key := range keys {
		s := bl.Benchmarks[key]
		fmt.Fprintf(w, "| %s | %s | ±%.1f%% | %d |\n",
			strings.TrimPrefix(key, "Benchmark"), formatNs(median(s)), spread(s), len(s))
	}
	if bl.Note != "" {
		fmt.Fprintf(w, "\n%s\n", bl.Note)
	}
}

// formatNs renders a ns/op median with a human-scaled unit.
func formatNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// expand resolves a gated benchmark name to the concrete keys present in
// either run: the name itself and any `name/sub` sub-benchmarks.
func expand(name string, base, head map[string][]float64) []string {
	seen := make(map[string]bool)
	for _, m := range []map[string][]float64{base, head} {
		for key := range m {
			if key == name || strings.HasPrefix(key, name+"/") {
				seen[key] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// parseFile reads `go test -bench` output, grouping ns/op samples by
// benchmark base name (the -N GOMAXPROCS suffix is stripped, so repeated
// -count runs accumulate).
func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, ns, ok := parseLine(sc.Text())
		if ok {
			out[name] = append(out[name], ns)
		}
	}
	return out, sc.Err()
}

// parseLine extracts (benchmark base name, ns/op) from one output line.
func parseLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] == "ns/op" {
			ns, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return "", 0, false
			}
			return baseName(fields[0]), ns, true
		}
	}
	return "", 0, false
}

// baseName strips the -N parallelism suffix go test appends.
func baseName(s string) string {
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

// result is one benchmark's gate outcome.
type result struct {
	name     string
	fail     bool
	advisory bool
	note     string
}

func (r result) String() string {
	switch {
	case r.fail:
		return fmt.Sprintf("FAIL     %-28s %s", r.name, r.note)
	case r.advisory:
		return fmt.Sprintf("ADVISORY %-28s %s", r.name, r.note)
	default:
		return fmt.Sprintf("ok       %-28s %s", r.name, r.note)
	}
}

// verdict gates one benchmark: a confident regression beyond threshold%
// fails; noisy data downgrades to advisory. A gated benchmark missing
// from either side is a hard failure, not an advisory — a deleted,
// renamed, or silently skipped benchmark must not pass the gate (refresh
// the baseline with -update after intentional changes).
func verdict(name string, base, head []float64, threshold, noise float64, minSamples int) result {
	r := result{name: name}
	if len(base) == 0 || len(head) == 0 {
		r.fail = true
		r.note = fmt.Sprintf("missing samples (base %d, head %d) — gated benchmarks must exist in both runs; refresh the baseline with -update if this rename/removal is intentional", len(base), len(head))
		return r
	}
	mb, mh := median(base), median(head)
	if mb <= 0 {
		r.advisory = true
		r.note = "degenerate base median; not gated"
		return r
	}
	delta := (mh - mb) / mb * 100
	r.note = fmt.Sprintf("base %.4gns head %.4gns delta %+.1f%%", mb, mh, delta)
	sb, sh := spread(base), spread(head)
	switch {
	case len(base) < minSamples || len(head) < minSamples:
		r.advisory = true
		r.note += fmt.Sprintf(" (advisory: %d/%d samples < %d)", len(base), len(head), minSamples)
	case sb > noise || sh > noise:
		r.advisory = true
		r.note += fmt.Sprintf(" (advisory: spread base %.1f%% head %.1f%% > %.0f%% noise limit)", sb, sh, noise)
	case delta > threshold:
		r.fail = true
		r.note += fmt.Sprintf(" — regression beyond %.0f%%", threshold)
	}
	return r
}

// median returns the middle sample (upper-middle for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// spread is half the inter-quartile range over the median, in percent: a
// noise measure for the handful of samples -count produces. The quartiles
// are the sorted samples at ranks ⌊n/4⌋ and ⌊3n/4⌋, which exclude both
// extremes only from n = 5 on, so only there can one outlier not decide
// the spread the way it decides the half-range; at n = 3 or 4 a quartile
// is an extreme sample.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := median(s)
	if m <= 0 {
		return 100
	}
	n := len(s)
	return (s[3*n/4] - s[n/4]) / m * 100 / 2
}
