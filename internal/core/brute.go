package core

import (
	"context"
	"math/rand"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// BruteForceConfig tunes the BRUTE-FORCE-SAMPLER.
type BruteForceConfig struct {
	Seed  int64
	Attrs []int
	// MaxTries bounds fully-specified probes per candidate; 0 means 10^7.
	// Every try costs one interface query, so callers typically bound cost
	// through the connector or context instead.
	MaxTries int
}

// BruteForce implements BRUTE-FORCE-SAMPLER (SIGMOD 2007): draw a uniformly
// random cell of the cross-product domain space, issue the fully-specified
// query, and keep the row if the cell is occupied. Samples are provably
// uniform over the domain cells, which is why the demo uses a long run of
// this sampler as the validation ground truth (§3.4) — and its expected
// cost of |space|/n queries per sample is why it is unusable in practice.
type BruteForce struct {
	conn   formclient.Conn
	schema *hiddendb.Schema
	cfg    BruteForceConfig
	attrs  []int
	space  float64
	rng    *rand.Rand
	stats  genCounters
	// rows marks every query: all are fully specified, and the sampler
	// picks from an overflowing answer's rows.
	rows rowsCtx
}

// NewBruteForce builds the sampler, fetching the schema eagerly.
func NewBruteForce(ctx context.Context, conn formclient.Conn, cfg BruteForceConfig) (*BruteForce, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	attrs, err := resolveAttrs(schema, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	if cfg.MaxTries <= 0 {
		cfg.MaxTries = 10000000
	}
	return &BruteForce{
		conn:   conn,
		schema: schema,
		cfg:    cfg,
		attrs:  attrs,
		space:  subspaceSize(schema, attrs),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// GenStats implements Generator.
func (b *BruteForce) GenStats() GenStats { return b.stats.snapshot() }

// Candidate implements Generator.
func (b *BruteForce) Candidate(ctx context.Context) (*Candidate, error) {
	queries := 0
	for try := 0; try < b.cfg.MaxTries; try++ {
		b.stats.walks.Add(1)
		q := hiddendb.EmptyQuery()
		for _, attr := range b.attrs {
			q = q.With(attr, b.rng.Intn(b.schema.DomainSize(attr)))
		}
		res, err := b.conn.Execute(b.rows.of(ctx), q)
		if err != nil {
			return nil, err
		}
		queries++
		b.stats.queries.Add(1)
		if len(res.Tuples) == 0 {
			// Empty, or a row-less overflow page (a site that never shows
			// them): nothing to pick.
			b.stats.restarts.Add(1)
			continue
		}
		// Fully-specified queries only overflow when duplicates exceed k;
		// pick uniformly among the visible rows either way.
		idx := b.rng.Intn(len(res.Tuples))
		b.stats.candidates.Add(1)
		return &Candidate{
			Tuple:    res.Tuples[idx].Clone(),
			Reach:    1 / b.space / float64(len(res.Tuples)),
			Queries:  queries,
			Depth:    len(b.attrs),
			Restarts: try,
		}, nil
	}
	return nil, ErrNoCandidate
}

var _ Generator = (*BruteForce)(nil)
