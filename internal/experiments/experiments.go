// Package experiments regenerates every exhibit of the HDSampler demo
// paper: Figures 1–4 and the quantitative claims embedded in the prose
// (top-k limits of real sites, the efficiency↔skew slider, history
// savings, brute-force impracticality, count leveraging, aggregate
// accuracy, scalability, attribute ordering). Each experiment returns a
// Table whose rows cmd/hdbench prints (`hdbench -list` names them) and
// whose Metrics the root package's benchmarks report, so each table is
// reproducible from either entry point.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Scale selects experiment sizing: ScaleSmall keeps unit tests and
// benchmarks fast; ScaleFull reproduces the paper-scale setup.
type Scale int

const (
	ScaleSmall Scale = iota
	ScaleFull
)

// pick returns small or full depending on the scale.
func (s Scale) pick(small, full int) int {
	if s == ScaleFull {
		return full
	}
	return small
}

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment key (e.g. "figure4", "tradeoff"); Title the
	// paper exhibit it reproduces.
	ID, Title string
	Header    []string
	Rows      [][]string
	// Notes hold workload parameters and caveats, printed under the table.
	Notes []string
	// Metrics are the headline numbers benchmarks report
	// (name -> value, unit embedded in the name, e.g. "queries/sample").
	Metrics map[string]float64
}

// Fprint renders the table with aligned columns (widths in runes, so
// symbols like ± align).
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if n := utf8.RuneCountInString(cell); i < len(widths) && n < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-n))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment couples an ID with its runner. Run accepts the caller's
// context so a whole exhibit sweep can be cancelled or deadlined from the
// entry point (cmd/hdbench flag, test timeout) instead of each experiment
// minting its own detached root.
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context, Scale) (*Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"figure1", "Fig. 1 — query tree walk on the worked example", Figure1},
		{"figure2", "Fig. 2 — incremental pipeline with kill switch", Figure2},
		{"figure3", "Fig. 3 — attribute scoping", Figure3},
		{"figure4", "Fig. 4 — marginal histograms vs brute-force truth", Figure4},
		{"topk", "§2 — real-world top-k limits (k = 25…4000)", TopK},
		{"tradeoff", "§3.1 — efficiency vs skew slider", Tradeoff},
		{"history", "§3.2 — query history savings", History},
		{"bruteforce", "§3.4 — brute force impracticality", BruteForceTable},
		{"count", "[2] — leveraging count information", CountLeverage},
		{"aggregates", "§1/§3.4 — approximate aggregates", Aggregates},
		{"scale", "abstract — 'matter of minutes' scalability", Scalability},
		{"ordering", "2007 §opt — fixed vs shuffled attribute order", Ordering},
		{"crawl", "§1 — crawling vs sampling for one aggregate", CrawlVsSample},
		{"weighted", "ext — Horvitz–Thompson weighting vs rejection", WeightedEstimation},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs sorted as listed.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// sortedKeys is a helper for deterministic metric iteration in tests.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
