// Package formclient provides the connector abstraction every sampler
// draws through: a Conn answers conjunctive queries against some hidden
// database. Local wraps an in-process hiddendb.DB (the demo's "locally
// simulated hidden database" backup plan); HTTP drives a live web form
// interface, discovering the attribute domains by parsing the form page
// and reading answers off HTML result pages, with rate-limit-aware
// retries — the Google Base path of the original system.
package formclient

import (
	"context"
	"sync/atomic"

	"hdsampler/internal/hiddendb"
)

// Stats counts a connector's traffic. Queries is the number of logical
// interface queries answered; HTTPRequests, RateLimitRetries and
// TransientRetries are only meaningful for HTTP (and fault-injecting)
// connectors.
type Stats struct {
	Queries          int64
	HTTPRequests     int64
	RateLimitRetries int64
	// TransientRetries counts attempts repeated after a 5xx blip or a
	// timed-out request — interface flakiness, as opposed to rate-limit
	// congestion.
	TransientRetries int64
}

// Conn is the restricted access channel to a hidden database. All samplers
// operate exclusively through this interface; they never see more than a
// conjunctive top-k query answer.
type Conn interface {
	// Schema returns the searchable attributes and their domains. For HTTP
	// connectors the first call performs discovery by parsing the live
	// form page; the result is cached.
	Schema(ctx context.Context) (*hiddendb.Schema, error)
	// Execute answers one conjunctive query.
	Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// Local is a Conn bound directly to an in-process database.
type Local struct {
	db      *hiddendb.DB
	queries atomic.Int64
}

// NewLocal wraps db as a Conn.
func NewLocal(db *hiddendb.DB) *Local {
	return &Local{db: db}
}

// Schema implements Conn.
func (l *Local) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.db.Schema(), nil
}

// Execute implements Conn.
func (l *Local) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.queries.Add(1)
	return l.db.Execute(q)
}

// Stats implements Conn.
func (l *Local) Stats() Stats {
	return Stats{Queries: l.queries.Load()}
}

var _ Conn = (*Local)(nil)
