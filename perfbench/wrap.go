package main

import (
	"context"
	"sync"
	"sync/atomic"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// spanConn decorates a formclient.Conn — the public entry point every
// layer of the sampler stack implements — with one span per Execute. The
// bottom decorator also records the queries it forwards, for the replay
// against hiddendb.DB.Execute; the top one counts walk starts.
type spanConn struct {
	inner formclient.Conn
	rec   *recorder
	layer layer

	// rootLen is the predicate count of a walk's first query (1 for the
	// random walk); -1 turns walk counting off.
	rootLen int
	roots   atomic.Int64

	// record keeps forwarded queries when set.
	record  bool
	qmu     sync.Mutex
	queries []hiddendb.Query
}

// Schema implements formclient.Conn.
func (c *spanConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return c.inner.Schema(ctx)
}

// Execute implements formclient.Conn.
func (c *spanConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if c.rootLen >= 0 && q.Len() == c.rootLen {
		c.roots.Add(1)
	}
	if c.record {
		c.qmu.Lock()
		c.queries = append(c.queries, q)
		c.qmu.Unlock()
	}
	ctx, end := c.rec.begin(ctx, c.layer)
	defer end()
	return c.inner.Execute(ctx, q)
}

// Stats implements formclient.Conn.
func (c *spanConn) Stats() formclient.Stats { return c.inner.Stats() }

// recorded returns the queries forwarded so far.
func (c *spanConn) recorded() []hiddendb.Query {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return append([]hiddendb.Query(nil), c.queries...)
}
