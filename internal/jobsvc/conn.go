package jobsvc

import (
	"context"
	"fmt"
	"sync/atomic"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// The per-host politeness budget and concurrency cap live in the
// queryexec layer (see hostEntry in manager.go): every stack on one host
// shares one limiter, which bounds the *aggregate* request stream —
// unlike per-goroutine politeness sleeps, which let N workers together
// exceed the configured rate N-fold.

// budgetConn enforces one job's MaxQueries: it counts the queries the
// job's samplers issue (the same number Stats.Queries reports — history
// hits included, since the budget bounds the job's work, not just its
// network bill) and fails the job once the budget is spent.
type budgetConn struct {
	inner  formclient.Conn
	budget int64
	used   atomic.Int64
}

func (b *budgetConn) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	return b.inner.Schema(ctx)
}

func (b *budgetConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	if b.used.Add(1) > b.budget {
		return nil, fmt.Errorf("%w (budget %d)", ErrBudgetExhausted, b.budget)
	}
	return b.inner.Execute(ctx, q)
}

func (b *budgetConn) Stats() formclient.Stats { return b.inner.Stats() }

var _ formclient.Conn = (*budgetConn)(nil)

// budget wraps a job's stack conn in its MaxQueries budget, when it has
// one; crawl jobs hand their budget to the crawler instead.
func (s Spec) budget(conn formclient.Conn) formclient.Conn {
	if s.MaxQueries > 0 && s.Method != MethodCrawl {
		return &budgetConn{inner: conn, budget: s.MaxQueries}
	}
	return conn
}
