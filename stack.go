package hdsampler

import (
	"hdsampler/internal/history"
	"hdsampler/internal/queryexec"
)

// Stack is the query path samplers draw through: the connector, the
// query-execution layer above it, and — when history is on — the
// query-history cache on top:
//
//	generators → history.Cache → queryexec.Executor → conn
//
// New, DrawParallel, the jobsvc daemon and the web UI all draw through a
// Stack. Its layers are safe for concurrent use, so any number of
// ReplicaSets may share one Stack's Conn, its cache's answers and its
// executor's admission controller.
type Stack struct {
	conn  Conn // the top layer: the cache when present, else the executor
	cache *history.Cache
}

// NewStack assembles the query path over conn. The execution layer is
// always present; the history cache is present iff hist is non-nil.
func NewStack(conn Conn, exec queryexec.Options, hist *history.Options) *Stack {
	x := queryexec.New(conn, exec)
	st := &Stack{conn: x}
	if hist != nil {
		st.cache = history.New(x, *hist)
		st.conn = st.cache
	}
	return st
}

// stack assembles the query path cfg describes over conn.
func (cfg Config) stack(conn Conn) *Stack {
	var hist *history.Options
	if cfg.UseHistory {
		hist = &history.Options{TrustCounts: cfg.TrustCounts}
	}
	return NewStack(conn, cfg.Exec.options(), hist)
}

// Conn returns the top of the stack, the connector samplers draw through.
func (st *Stack) Conn() Conn { return st.conn }

// Cache returns the history cache, or nil when the stack runs without
// history.
func (st *Stack) Cache() *history.Cache { return st.cache }

// mark reads the stack's cumulative savings, and the connector's
// transient retries, into the Stats fields that report them.
func (st *Stack) mark() Stats {
	m := Stats{QueriesRetried: st.conn.Stats().TransientRetries}
	if st.cache != nil {
		m.QueriesSaved = st.cache.CacheStats().Saved()
	}
	return m
}

// fill sets s's savings fields to the stack's work since mark m.
func (st *Stack) fill(s *Stats, m Stats) {
	now := st.mark()
	s.QueriesSaved = now.QueriesSaved - m.QueriesSaved
	s.QueriesRetried = now.QueriesRetried - m.QueriesRetried
}
