package scenario

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hdsampler"
	"hdsampler/internal/datagen"
	"hdsampler/internal/exact"
	"hdsampler/internal/faultform"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/metrics"
	"hdsampler/internal/telemetry"
)

// DatasetSpec names one dataset shape of the matrix.
type DatasetSpec struct {
	// Name labels the matrix axis value.
	Name string
	// K is the interface's top-k limit the dataset is served under.
	K int
	// Build generates the dataset deterministically from a seed.
	Build func(seed int64) *datagen.Dataset
}

// SamplerSpec names one sampler configuration of the matrix.
type SamplerSpec struct {
	// Name labels the matrix axis value.
	Name string
	// CMode selects the rejection target: "accept-all" (C = 1, the raw
	// walk distribution) or "p25" (C at the 25th percentile of positive
	// reach probabilities — real rejection pressure at a bounded cost).
	CMode string
	// Scope, when positive, restricts the walk to the dataset's first
	// Scope attributes (the demo's attribute scoping); 0 walks them all.
	Scope int
}

// Config tunes a matrix run.
type Config struct {
	// Seed drives everything: dataset generation, fault injection and the
	// samplers. Equal configs replay each cell's accepted count, queries,
	// retries, C, chi-square and KS, but not its Faults or QueriesSaved:
	// its replicas share one cache, so timing decides whose miss is faulted.
	Seed int64
	// SamplesPerCell is the accepted-sample target of each cell.
	SamplesPerCell int
	// Workers is the replica count each cell draws with.
	Workers int
	// Datasets × Faults × Samplers is the grid; empty axes take the
	// defaults (DefaultDatasets/DefaultFaults/DefaultSamplers).
	Datasets []DatasetSpec
	Faults   []faultform.Profile
	Samplers []SamplerSpec
}

// biasAlpha is the minimum chi-square p-value a fault-free cell must
// reach: lower means the observed sample is measurably biased against
// the exact selection distribution.
const biasAlpha = 1e-3

// DefaultDatasets returns the standard dataset axis. small shrinks the
// databases for PR-sized runs; nightly runs use the full shapes.
func DefaultDatasets(small bool) []DatasetSpec {
	scale := func(s, f int) int {
		if small {
			return s
		}
		return f
	}
	return []DatasetSpec{
		{Name: "iid-bool", K: 8, Build: func(seed int64) *datagen.Dataset {
			return datagen.IIDBoolean(6, scale(120, 400), 0.5, seed)
		}},
		{Name: "corr-bool", K: 8, Build: func(seed int64) *datagen.Dataset {
			return datagen.CorrelatedBoolean(6, scale(120, 400), 0.8, seed)
		}},
		{Name: "zipf-cat", K: 10, Build: func(seed int64) *datagen.Dataset {
			return datagen.ZipfCategorical([]int{5, 4, 3}, scale(150, 500), 1.0, seed)
		}},
		{Name: "ranked", K: 10, Build: func(seed int64) *datagen.Dataset {
			return datagen.RankedListings(scale(150, 500), seed)
		}},
		{Name: "wide-cat", K: 10, Build: func(seed int64) *datagen.Dataset {
			return datagen.WideCategorical(3, 12, scale(160, 500), 0.25, seed)
		}},
	}
}

// DefaultFaults returns the standard fault axis: the faultform presets.
func DefaultFaults() []faultform.Profile { return faultform.Presets() }

// DefaultSamplers returns the standard sampler axis.
func DefaultSamplers() []SamplerSpec {
	return []SamplerSpec{
		{Name: "fast", CMode: "accept-all"},
		{Name: "lowskew", CMode: "p25"},
		// Two attributes leave many cells overflowing at the walk's last
		// level, where it picks among the visible rows the history cache
		// must keep for it.
		{Name: "scoped", CMode: "p25", Scope: 2},
	}
}

// CellResult is one cell's measurement.
type CellResult struct {
	Dataset string `json:"dataset"`
	Fault   string `json:"fault"`
	Sampler string `json:"sampler"`

	// Requested and Accepted are the sample target and what arrived; a
	// live cell has Accepted == Requested and no error.
	Requested int    `json:"requested"`
	Accepted  int    `json:"accepted"`
	Err       string `json:"err,omitempty"`

	// C is the rejection target used; DBSize the database size.
	C      float64 `json:"c"`
	DBSize int     `json:"db_size"`

	// ChiSquare/ChiDF/ChiP test the observed tuple counts against the
	// exact selection distribution; KS is the drift statistic over the
	// same support. BiasGated marks cells where the gate applies
	// (fault-free cells); BiasOK its verdict (true wherever ungated).
	ChiSquare float64 `json:"chi_square"`
	ChiDF     int     `json:"chi_df"`
	ChiP      float64 `json:"chi_p"`
	KS        float64 `json:"ks"`
	BiasGated bool    `json:"bias_gated"`
	BiasOK    bool    `json:"bias_ok"`

	// Query-cost accounting for the cell.
	Queries          int64   `json:"queries"`
	QueriesSaved     int64   `json:"queries_saved"`
	QueriesRetried   int64   `json:"queries_retried"`
	QueriesPerSample float64 `json:"queries_per_sample"`

	// Faults is what the adversarial interface actually injected.
	Faults faultform.Stats `json:"faults"`

	// Walk summarizes the cell's whole-walk latency histogram and
	// TracedWalks counts the draws its sampling tracer captured — the
	// telemetry stack measured under the same adversarial conditions the
	// cell gates on.
	Walk        telemetry.Summary `json:"walk_latency"`
	TracedWalks int64             `json:"traced_walks"`

	WallMS float64 `json:"wall_ms"`
}

// Live reports whether the cell completed without deadlock or sample
// loss: every requested sample arrived and no error surfaced.
func (c *CellResult) Live() bool {
	return c.Err == "" && c.Accepted == c.Requested
}

// OK reports whether the cell passed everything that gates it.
func (c *CellResult) OK() bool { return c.Live() && c.BiasOK }

// Report is the machine-readable outcome of one matrix run.
type Report struct {
	GeneratedAt    time.Time    `json:"generated_at"`
	Seed           int64        `json:"seed"`
	SamplesPerCell int          `json:"samples_per_cell"`
	Workers        int          `json:"workers"`
	Grid           [3]int       `json:"grid"` // datasets × faults × samplers
	Cells          []CellResult `json:"cells"`
}

// Failures lists the failing cells, empty when the whole matrix passed.
func (r *Report) Failures() []string {
	var out []string
	for i := range r.Cells {
		c := &r.Cells[i]
		if !c.OK() {
			why := "bias"
			if !c.Live() {
				why = fmt.Sprintf("liveness (%d/%d samples, err=%q)", c.Accepted, c.Requested, c.Err)
			} else {
				why = fmt.Sprintf("bias (chi2=%.1f df=%d p=%.2g)", c.ChiSquare, c.ChiDF, c.ChiP)
			}
			out = append(out, fmt.Sprintf("%s/%s/%s: %s", c.Dataset, c.Fault, c.Sampler, why))
		}
	}
	return out
}

// Run executes the matrix sequentially (cells are independent and each is
// internally parallel) and returns the full report. The returned error
// reflects infrastructure problems (cancellation, a dataset that cannot
// be built); per-cell sampling failures land in the cells themselves so
// one hostile cell cannot hide the rest of the matrix.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.SamplesPerCell <= 0 {
		cfg.SamplesPerCell = 400
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = DefaultDatasets(true)
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = DefaultFaults()
	}
	if len(cfg.Samplers) == 0 {
		cfg.Samplers = DefaultSamplers()
	}
	rep := &Report{
		GeneratedAt:    time.Now().UTC(),
		Seed:           cfg.Seed,
		SamplesPerCell: cfg.SamplesPerCell,
		Workers:        cfg.Workers,
		Grid:           [3]int{len(cfg.Datasets), len(cfg.Faults), len(cfg.Samplers)},
	}
	for di, ds := range cfg.Datasets {
		// One dataset instance per axis value, shared by every fault and
		// sampler cell, so columns of the matrix are comparable.
		data := ds.Build(cfg.Seed + int64(di)*1009)
		ranker := data.Ranker
		db, err := hiddendb.New(data.Schema, data.Tuples, ranker, hiddendb.Config{K: ds.K})
		if err != nil {
			return rep, fmt.Errorf("scenario: dataset %s: %w", ds.Name, err)
		}
		// The exact walk distribution of each sampler's scope: the walk
		// over the scoped attributes in schema order.
		dists := make([]*exact.Dist, len(cfg.Samplers))
		for si, sp := range cfg.Samplers {
			if dists[si], err = exact.WalkDist(db, scopeAttrs(data.Schema, sp.Scope), ds.K); err != nil {
				return rep, fmt.Errorf("scenario: dataset %s: %w", ds.Name, err)
			}
		}
		for fi, fp := range cfg.Faults {
			for si, sp := range cfg.Samplers {
				if err := ctx.Err(); err != nil {
					return rep, err
				}
				cellSeed := cfg.Seed + int64(di)*1_000_003 + int64(fi)*10_007 + int64(si)*101
				cell := runCell(ctx, cellParams{
					seed: cellSeed, n: cfg.SamplesPerCell, workers: cfg.Workers,
					ds: ds, fp: fp, sp: sp, db: db, dist: dists[si],
				})
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
}

// cellParams carries one cell's inputs.
type cellParams struct {
	seed    int64
	n       int
	workers int
	ds      DatasetSpec
	fp      faultform.Profile
	sp      SamplerSpec
	db      *hiddendb.DB
	dist    *exact.Dist
}

// scopeAttrs returns the first scope attributes of schema, nil (all of
// them) when scope is not positive.
func scopeAttrs(schema *hiddendb.Schema, scope int) []int {
	if scope <= 0 {
		return nil
	}
	attrs := make([]int, min(scope, schema.NumAttrs()))
	for i := range attrs {
		attrs[i] = i
	}
	return attrs
}

// selectC maps a sampler spec onto its rejection target for this walk
// distribution.
func selectC(dist *exact.Dist, mode string) float64 {
	switch mode {
	case "p25":
		return reachQuantile(dist, 0.25)
	default: // "accept-all"
		return 1
	}
}

// reachQuantile returns the q-quantile of the positive reach
// probabilities (1 when no tuple is reachable: accept everything).
func reachQuantile(dist *exact.Dist, q float64) float64 {
	var reach []float64
	for _, r := range dist.Reach {
		if r > 0 {
			reach = append(reach, r)
		}
	}
	if len(reach) == 0 {
		return 1
	}
	sort.Float64s(reach)
	idx := int(q * float64(len(reach)-1))
	return reach[idx]
}

// runCell draws one cell through the full production stack and measures
// it.
func runCell(ctx context.Context, p cellParams) CellResult {
	cell := CellResult{
		Dataset:   p.ds.Name,
		Fault:     p.fp.Name,
		Sampler:   p.sp.Name,
		Requested: p.n,
		DBSize:    p.db.Size(),
	}
	c := selectC(p.dist, p.sp.CMode)
	cell.C = c

	conn := faultform.Wrap(formclient.NewLocal(p.db), p.fp, p.seed+7)
	// Each cell carries its own telemetry: a walk-duration histogram and a
	// 5%-sampled tracer, so the report shows the latency the stack
	// delivered under the same adversarial conditions the cell gates on.
	walkHist := &telemetry.Histogram{}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Rate: 0.05, Seed: uint64(p.seed) + 1, Capacity: 32,
	})
	cfg := hdsampler.Config{
		Seed:       p.seed,
		C:          c,
		K:          p.ds.K,
		Attrs:      scopeAttrs(p.db.Schema(), p.sp.Scope),
		UseHistory: true,
		Obs:        &telemetry.WalkObserver{Tracer: tracer, Duration: walkHist},
	}
	start := time.Now()
	tuples, stats, err := hdsampler.DrawParallel(ctx, conn, cfg, p.n, p.workers)
	cell.WallMS = float64(time.Since(start).Microseconds()) / 1000
	cell.Accepted = len(tuples)
	if err != nil {
		cell.Err = err.Error()
	}
	cell.Queries = stats.Queries
	cell.QueriesSaved = stats.QueriesSaved
	cell.QueriesRetried = stats.QueriesRetried
	if len(tuples) > 0 {
		cell.QueriesPerSample = float64(stats.Queries) / float64(len(tuples))
	}
	cell.Faults = conn.FaultStats()
	cell.Walk = walkHist.Snapshot().Summary()
	cell.TracedWalks = tracer.Stats().Finished

	// Bias against the exact selection distribution. Content faults
	// (jitter trims reachability) legitimately shift the distribution, so
	// only fault-free cells gate on it; the statistics are recorded for
	// every cell regardless — drift under faults is exactly what the
	// nightly artifact is for.
	counts := make([]int, p.db.Size())
	for i := range tuples {
		if id := tuples[i].ID; id >= 0 && id < len(counts) {
			counts[id]++
		}
	}
	want := p.dist.Selection(c)
	expected := make([]float64, len(want))
	df := -1
	for i, w := range want {
		expected[i] = w * float64(len(tuples))
		if w > 0 {
			df++
		}
	}
	cell.ChiSquare = metrics.ChiSquareStat(counts, expected)
	cell.ChiDF = df
	if df > 0 {
		cell.ChiP = metrics.ChiSquarePValue(cell.ChiSquare, df)
	} else {
		cell.ChiP = 1
	}
	cell.KS = metrics.KSFromCounts(counts, want)
	cell.BiasGated = !p.fp.Active()
	cell.BiasOK = !cell.BiasGated || cell.ChiP >= biasAlpha
	return cell
}
