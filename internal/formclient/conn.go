// Package formclient provides the connector abstraction every sampler
// draws through: a Conn answers conjunctive queries against some hidden
// database. Local wraps an in-process hiddendb.DB (the demo's "locally
// simulated hidden database" backup plan); HTTP drives a live web form
// interface, discovering the attribute domains by parsing the form page
// and reading answers off HTML result pages, with rate-limit-aware
// retries — the Google Base path of the original system.
//
// A caller that will read an overflowing answer's rows says so with
// WantRows. The drill-down reads them only at its last level, where the
// query cannot be narrowed any further, so every other overflow answer is
// just a flag. Local then skips building those rows in the database
// (hiddendb.DB.ExecuteRows). HTTP decodes result pages in one pass over
// the body, with no DOM (the htmlx DOM is used for form discovery only),
// and decodes an overflow page's rows only when they are wanted.
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
	// Execute answers one conjunctive query. A valid (non-overflowing)
	// answer always carries all its rows. When RowsWanted(ctx), an
	// overflowing answer carries its full visible top-k, across every
	// page of a paginated site; otherwise a connector may omit those rows
	// and return the overflow flag and count alone, and Local and HTTP
	// do. Callers must not read an unwanted overflow answer's rows.
	// Decorators pass ctx through, so the request reaches the wire.
	Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// rowsKey is the context key WantRows sets.
type rowsKey struct{}

// WantRows returns a context under which Execute must return an
// overflowing answer's visible rows. Generators mark the queries whose
// overflow rows they read: the drill-down's last level, where it picks a
// row even from an overflowing answer. The mark is one context value and
// costs one allocation; a generator that reuses the marked context across
// calls pays it once.
func WantRows(ctx context.Context) context.Context {
	return context.WithValue(ctx, rowsKey{}, true)
}

// RowsWanted reports whether ctx asks for an overflowing answer's rows.
func RowsWanted(ctx context.Context) bool {
	v, _ := ctx.Value(rowsKey{}).(bool)
	return v
}

// Local is a Conn bound directly to an in-process database. Like HTTP, it
// returns an overflowing answer's rows only when they are wanted, and the
// database skips building the rows that are not.
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
	return l.db.ExecuteRows(q, RowsWanted(ctx))
}

// Stats implements Conn.
func (l *Local) Stats() Stats {
	return Stats{Queries: l.queries.Load()}
}

var _ Conn = (*Local)(nil)
