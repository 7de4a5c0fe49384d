package core

import (
	"context"
	"errors"
	"fmt"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// ErrCrawlBudget is returned when a crawl exceeds its query budget.
var ErrCrawlBudget = errors.New("core: crawl query budget exhausted")

// CrawlerConfig tunes a full-extraction crawl.
type CrawlerConfig struct {
	// Attrs optionally restricts the crawl to an attribute subset.
	Attrs []int
	// MaxQueries aborts the crawl beyond this many interface queries
	// (0 = unlimited) — real sites cap per-client queries, which is the
	// paper's argument against crawling.
	MaxQueries int64
}

// Crawler exhaustively extracts every reachable tuple by systematically
// expanding the query tree: the "expensive crawl of the entire database"
// the demo's introduction contrasts sampling against. It exists as a
// baseline so the experiments can price a crawl against a sample for the
// same analytical question.
type Crawler struct {
	conn   formclient.Conn
	schema *hiddendb.Schema
	cfg    CrawlerConfig
	attrs  []int
	stats  genCounters
}

// NewCrawler builds a crawler, fetching the schema eagerly.
func NewCrawler(ctx context.Context, conn formclient.Conn, cfg CrawlerConfig) (*Crawler, error) {
	schema, err := conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	attrs, err := resolveAttrs(schema, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	return &Crawler{conn: conn, schema: schema, cfg: cfg, attrs: attrs}, nil
}

// Queries returns the number of interface queries issued so far.
func (c *Crawler) Queries() int64 { return c.stats.queries.Load() }

// Run extracts every tuple reachable through the interface, deduplicated
// by tuple identity. Tuples hidden beyond the top-k of every query that
// could return them cannot be extracted by any client; they are the same
// rows the samplers cannot reach.
func (c *Crawler) Run(ctx context.Context) ([]hiddendb.Tuple, error) {
	seen := make(map[int]hiddendb.Tuple)
	anon := 0 // rows without stable IDs are kept as distinct
	var anonRows []hiddendb.Tuple
	// The fully specified queries' overflow rows are collected.
	wantRows := formclient.WantRows(ctx)
	var crawl func(q hiddendb.Query, depth int) error
	crawl = func(q hiddendb.Query, depth int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.cfg.MaxQueries > 0 && c.stats.queries.Load() >= c.cfg.MaxQueries {
			return fmt.Errorf("%w (budget %d)", ErrCrawlBudget, c.cfg.MaxQueries)
		}
		qctx := ctx
		if depth == len(c.attrs) {
			qctx = wantRows
		}
		res, err := c.conn.Execute(qctx, q)
		if err != nil {
			return err
		}
		c.stats.queries.Add(1)
		collect := func() {
			for i := range res.Tuples {
				t := res.Tuples[i]
				if t.ID >= 0 {
					if _, ok := seen[t.ID]; !ok {
						seen[t.ID] = t.Clone()
					}
				} else {
					anonRows = append(anonRows, t.Clone())
					anon++
				}
			}
		}
		switch {
		case res.Empty():
			return nil
		case res.Valid():
			collect()
			return nil
		case depth == len(c.attrs):
			// Fully specified and still overflowing: collect the visible
			// top-k; the rest is unreachable.
			collect()
			return nil
		}
		attr := c.attrs[depth]
		for v := 0; v < c.schema.DomainSize(attr); v++ {
			if err := crawl(q.With(attr, v), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := crawl(hiddendb.EmptyQuery(), 0); err != nil {
		return nil, err
	}
	out := make([]hiddendb.Tuple, 0, len(seen)+anon)
	for _, t := range seen {
		out = append(out, t)
	}
	out = append(out, anonRows...)
	return out, nil
}
