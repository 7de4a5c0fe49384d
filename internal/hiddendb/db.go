package hiddendb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hdsampler/internal/hiddendb/bitmap"
)

// CountMode selects how the interface reports result counts, matching the
// three behaviours seen on real sites.
type CountMode int

const (
	// CountNone: the interface never reports a count (only the top-k rows
	// and an overflow flag).
	CountNone CountMode = iota
	// CountExact: the interface reports the exact number of matches.
	CountExact
	// CountApprox: the interface reports a noisy estimate, as Google Base's
	// proprietary estimator did; HDSampler ignores these by default.
	CountApprox
)

// String returns the mode's name.
func (m CountMode) String() string {
	switch m {
	case CountNone:
		return "none"
	case CountExact:
		return "exact"
	case CountApprox:
		return "approx"
	default:
		return fmt.Sprintf("countmode(%d)", int(m))
	}
}

// PostingBackend selects the posting-list representation behind
// Execute's conjunctive intersections.
type PostingBackend int

const (
	// PostingsBitmap (the default) stores posting lists as roaring-style
	// compressed bitmaps (internal/hiddendb/bitmap): array/bitmap/run
	// containers keyed by the high 16 bits of the rank position, with
	// word-level AND kernels and free exact counts from container
	// cardinalities. This is the backend that holds at 100M+ tuples.
	PostingsBitmap PostingBackend = iota
	// PostingsSorted is the PR 4 sorted-[]int32 representation with
	// galloping intersection, kept as the differential-testing and
	// benchmarking reference for the bitmap backend.
	PostingsSorted
)

// String returns the backend's name.
func (p PostingBackend) String() string {
	switch p {
	case PostingsBitmap:
		return "bitmap"
	case PostingsSorted:
		return "sorted"
	default:
		return fmt.Sprintf("postings(%d)", int(p))
	}
}

// Config tunes a DB's interface behaviour.
type Config struct {
	// K is the top-k limit: the maximum tuples displayed per query.
	// Google Base used 1000, MSN Career 4000, MSN Stock Screener 25.
	K int
	// CountMode selects count reporting (default CountNone).
	CountMode CountMode
	// CountNoise is the maximum multiplicative relative error of
	// CountApprox estimates, e.g. 0.3 for ±30%. The noise is a
	// deterministic function of the query, like a fixed proprietary
	// estimator: asking twice gives the same estimate.
	CountNoise float64
	// NoiseSeed seeds the deterministic count noise.
	NoiseSeed uint64
	// QueryBudget, when positive, bounds the total number of queries the
	// interface will answer before returning ErrBudgetExhausted — data
	// providers commonly cap queries per client.
	QueryBudget int64
	// Postings selects the posting-list representation (default
	// PostingsBitmap).
	Postings PostingBackend
}

// ErrBudgetExhausted is returned once a DB's QueryBudget is spent.
var ErrBudgetExhausted = errors.New("hiddendb: query budget exhausted")

// DB is an in-memory hidden database: a tuple store that can only be
// queried through Execute, which applies conjunctive filtering, top-k
// truncation under a deterministic ranking, and the configured count
// reporting. It is safe for concurrent use.
type DB struct {
	schema *Schema
	cfg    Config
	ranker Ranker

	// tuples in insertion order; IDs are positions here.
	tuples []Tuple
	// rankPos[id] is the tuple's position in the global rank order
	// (0 = best). byRank is the inverse permutation.
	rankPos []int32
	byRank  []int32
	// postings[attr][value] lists matching tuples as rank positions,
	// ascending, so intersections stream out in rank order. Exactly one
	// of the two representations is populated, per Config.Postings:
	// sorted []int32 slices, or roaring-style compressed bitmaps. A nil
	// bitPostings entry means no tuple has that value.
	postings    [][][]int32
	bitPostings [][]*bitmap.Bitmap

	// scratch pools per-Execute intersection state (posting-list views,
	// galloping cursors, match buffer) so the hot path allocates nothing
	// beyond the Result it returns.
	scratch sync.Pool

	queries atomic.Int64
}

// matchScratch is the reusable per-Execute intersection state.
type matchScratch struct {
	lists   [][]int32
	cursors []int
	out     []int32
	views   []*bitmap.Bitmap
	res     *bitmap.Bitmap
}

// New builds a DB over the given tuples. Tuples are validated against the
// schema; their IDs are overwritten with their positions. The ranker
// defaults to HashRanker{Seed:1} and K to 100 when unset.
func New(schema *Schema, tuples []Tuple, ranker Ranker, cfg Config) (*DB, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, errors.New("hiddendb: empty database")
	}
	if ranker == nil {
		ranker = HashRanker{Seed: 1}
	}
	if cfg.K <= 0 {
		cfg.K = 100
	}
	if cfg.CountNoise < 0 || cfg.CountNoise >= 1 {
		return nil, fmt.Errorf("hiddendb: CountNoise %g outside [0,1)", cfg.CountNoise)
	}
	db := &DB{schema: schema, cfg: cfg, ranker: ranker, tuples: tuples}
	db.scratch.New = func() any { return &matchScratch{res: bitmap.New()} }
	m := len(schema.Attrs)
	for i := range db.tuples {
		t := &db.tuples[i]
		//hdlint:ignore resultimmut New takes documented ownership of the caller's tuple slice; IDs are assigned once here
		t.ID = i
		if len(t.Vals) != m {
			return nil, fmt.Errorf("hiddendb: tuple %d has %d values for %d attributes", i, len(t.Vals), m)
		}
		for a, v := range t.Vals {
			if v < 0 || v >= schema.DomainSize(a) {
				return nil, fmt.Errorf("hiddendb: tuple %d attribute %q value %d out of domain [0,%d)",
					i, schema.Attrs[a].Name, v, schema.DomainSize(a))
			}
		}
		if t.Nums != nil && len(t.Nums) != m {
			return nil, fmt.Errorf("hiddendb: tuple %d has %d numeric payloads for %d attributes", i, len(t.Nums), m)
		}
	}
	db.buildRank()
	db.buildPostings()
	return db, nil
}

func (db *DB) buildRank() {
	n := len(db.tuples)
	scores := make([]float64, n)
	for i := range db.tuples {
		scores[i] = db.ranker.Score(&db.tuples[i])
	}
	db.byRank = make([]int32, n)
	for i := range db.byRank {
		db.byRank[i] = int32(i)
	}
	sort.SliceStable(db.byRank, func(i, j int) bool {
		a, b := db.byRank[i], db.byRank[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b] // higher score ranks earlier
		}
		return a < b
	})
	db.rankPos = make([]int32, n)
	for pos, id := range db.byRank {
		db.rankPos[id] = int32(pos)
	}
}

func (db *DB) buildPostings() {
	if db.cfg.Postings == PostingsSorted {
		db.buildSortedPostings()
		return
	}
	m := len(db.schema.Attrs)
	db.bitPostings = make([][]*bitmap.Bitmap, m)
	for a := 0; a < m; a++ {
		db.bitPostings[a] = make([]*bitmap.Bitmap, db.schema.DomainSize(a))
	}
	// Iterate in rank order so every Add is an ascending tail append —
	// O(1) amortized per value, no mid-container memmoves even at 100M.
	for pos, id := range db.byRank {
		for a, v := range db.tuples[id].Vals {
			pb := db.bitPostings[a][v]
			if pb == nil {
				pb = bitmap.New()
				db.bitPostings[a][v] = pb
			}
			pb.Add(uint32(pos))
		}
	}
	for a := range db.bitPostings {
		for _, pb := range db.bitPostings[a] {
			if pb != nil {
				pb.Optimize()
			}
		}
	}
}

func (db *DB) buildSortedPostings() {
	m := len(db.schema.Attrs)
	db.postings = make([][][]int32, m)
	for a := 0; a < m; a++ {
		db.postings[a] = make([][]int32, db.schema.DomainSize(a))
	}
	for id := range db.tuples {
		pos := db.rankPos[id]
		for a, v := range db.tuples[id].Vals {
			db.postings[a][v] = append(db.postings[a][v], pos)
		}
	}
	for a := range db.postings {
		for v := range db.postings[a] {
			p := db.postings[a][v]
			sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		}
	}
}

// Schema returns the database schema.
func (db *DB) Schema() *Schema { return db.schema }

// K returns the interface's top-k limit.
func (db *DB) K() int { return db.cfg.K }

// CountMode returns the interface's count reporting mode.
func (db *DB) CountMode() CountMode { return db.cfg.CountMode }

// Size returns the number of tuples (hidden from interface clients; used by
// experiments for ground truth).
func (db *DB) Size() int { return len(db.tuples) }

// QueriesServed returns the number of Execute calls answered so far.
func (db *DB) QueriesServed() int64 { return db.queries.Load() }

// ResetBudget reopens a budget-exhausted database (used between experiment
// runs that share a server).
func (db *DB) ResetBudget() { db.queries.Store(0) }

// Execute answers one conjunctive query through the restricted interface:
// the top-k matches in rank order, the overflow flag, and a count according
// to the configured CountMode. This is the only read path a client has.
//
// The returned tuples share the database's immutable backing storage —
// callers must treat Result.Tuples as read-only and Clone tuples they
// intend to own (see Result's documentation).
func (db *DB) Execute(q Query) (*Result, error) {
	if err := q.ValidateAgainst(db.schema); err != nil {
		return nil, err
	}
	n := db.queries.Add(1)
	if db.cfg.QueryBudget > 0 && n > db.cfg.QueryBudget {
		return nil, ErrBudgetExhausted
	}
	sc := db.scratch.Get().(*matchScratch)
	// Count-reporting interfaces need the exact total: compute it in the
	// same intersection pass instead of re-deriving the whole intersection
	// afterwards. Count-free interfaces stop scanning at K+1.
	needTotal := db.cfg.CountMode != CountNone
	var matchPos []int32
	var total int
	if db.cfg.Postings == PostingsSorted {
		matchPos, total = db.matchPositions(sc, q, db.cfg.K+1, needTotal)
	} else {
		matchPos, total = db.matchBitmap(sc, q, db.cfg.K+1, needTotal)
	}
	// The answer's two-allocation budget: the Result header here plus its
	// Tuples slice below.
	res := &Result{Count: CountAbsent}
	if total > db.cfg.K {
		res.Overflow = true
		matchPos = matchPos[:db.cfg.K]
	}
	res.Tuples = make([]Tuple, len(matchPos))
	for i, pos := range matchPos {
		res.Tuples[i] = db.tuples[db.byRank[pos]]
	}
	switch db.cfg.CountMode {
	case CountExact:
		res.Count = total
	case CountApprox:
		res.Count = db.approxCount(q, total)
	}
	db.scratch.Put(sc)
	return res, nil
}

// matchPositions intersects the query's posting lists into sc.out: the
// first limit matching rank positions in rank order. When needTotal is
// set, the scan continues past limit (appending nothing further) so total
// is the exact match count; otherwise total stops at limit, which still
// decides overflow when limit = K+1.
//
// The intersection is seeded from the shortest list and galloped: each
// longer list keeps a monotone cursor advanced by exponential probing plus
// binary search over the bracketed window, so a candidate costs O(log gap)
// rather than a fresh O(log n) binary search — and an exhausted list ends
// the whole scan early, since no later candidate can match.
func (db *DB) matchPositions(sc *matchScratch, q Query, limit int, needTotal bool) (pos []int32, total int) {
	d := q.Len()
	if d == 0 {
		return db.matchAll(sc, limit)
	}
	lists := sc.lists[:0]
	for i := 0; i < d; i++ {
		p := q.Pred(i)
		lists = append(lists, db.postings[p.Attr][p.Value])
	}
	// Shortest list first. d is tiny (bounded by the schema width), so an
	// in-place insertion sort beats sort.Slice and its closure allocation.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	sc.lists = lists
	cursors := sc.cursors[:0]
	for range lists {
		cursors = append(cursors, 0)
	}
	sc.cursors = cursors
	out := sc.out[:0]
outer:
	for _, cand := range lists[0] {
		for j := 1; j < len(lists); j++ {
			l := lists[j]
			k := gallop(l, cursors[j], cand)
			cursors[j] = k
			if k == len(l) {
				break outer // list exhausted: nothing later can match
			}
			if l[k] != cand {
				continue outer
			}
		}
		total++
		if len(out) < limit {
			out = append(out, cand)
		}
		if !needTotal && total >= limit {
			break
		}
	}
	sc.out = out
	return out, total
}

// matchAll answers the empty (predicate-free) query shared by both
// posting backends: every tuple matches, so the first limit rank
// positions are simply 0..limit-1.
func (db *DB) matchAll(sc *matchScratch, limit int) (pos []int32, total int) {
	total = len(db.tuples)
	n := total
	if n > limit {
		n = limit
	}
	out := sc.out[:0]
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	sc.out = out
	return out, total
}

// matchBitmap is matchPositions for the bitmap backend: it intersects
// the query's posting bitmaps into sc.res, seeded from the
// lowest-cardinality predicate, and materializes the first limit rank
// positions into sc.out. The exact total falls out of the result
// cardinality for free when needTotal is set (the CountExact single-pass
// contract); otherwise the intersection early-exits once limit values
// are known, and total is only guaranteed to be ≥ limit or exact —
// still enough to decide overflow at limit = K+1.
func (db *DB) matchBitmap(sc *matchScratch, q Query, limit int, needTotal bool) (pos []int32, total int) {
	d := q.Len()
	if d == 0 {
		return db.matchAll(sc, limit)
	}
	views := sc.views[:0]
	for i := 0; i < d; i++ {
		p := q.Pred(i)
		pb := db.bitPostings[p.Attr][p.Value]
		if pb == nil {
			// No tuple carries this value: the conjunction is empty.
			sc.views = views
			sc.out = sc.out[:0]
			return sc.out, 0
		}
		views = append(views, pb)
	}
	sc.views = views
	if d == 1 {
		return db.materialize(sc, views[0], limit, views[0].Cardinality())
	}
	total = bitmap.IntersectInto(sc.res, views, limit, needTotal)
	return db.materialize(sc, sc.res, limit, total)
}

// materialize copies the first limit values of b into sc.out as rank
// positions.
func (db *DB) materialize(sc *matchScratch, b *bitmap.Bitmap, limit, total int) (pos []int32, n int) {
	k := b.Cardinality()
	if k > limit {
		k = limit
	}
	out := sc.out[:0]
	it := b.Iterator()
	for i := 0; i < k; i++ {
		v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, int32(v))
	}
	sc.out = out
	return out, total
}

// gallop returns the smallest index i in [lo, len(l)] with l[i] >= x,
// assuming l ascending. It probes exponentially from lo, then binary
// searches the bracketed window, so advancing a cursor over a small gap is
// O(log gap) with mostly-local memory accesses.
func gallop(l []int32, lo int, x int32) int {
	if lo >= len(l) || l[lo] >= x {
		return lo
	}
	step := 1
	for lo+step < len(l) && l[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(l) {
		hi = len(l)
	}
	// Invariant: l[lo] < x, and hi == len(l) or l[hi] >= x.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TrueCount returns the exact number of tuples matching q, bypassing the
// interface; experiments use it for ground truth, never the samplers.
func (db *DB) TrueCount(q Query) int {
	sc := db.scratch.Get().(*matchScratch)
	var total int
	if db.cfg.Postings == PostingsSorted {
		_, total = db.matchPositions(sc, q, 0, true)
	} else {
		_, total = db.matchBitmap(sc, q, 0, true)
	}
	db.scratch.Put(sc)
	return total
}

// approxCount perturbs the exact count by a deterministic multiplicative
// factor in [1-noise, 1+noise] derived from the query key, modelling a
// fixed proprietary estimator. Zero counts stay zero (sites say "no
// results" reliably).
func (db *DB) approxCount(q Query, exact int) int {
	if exact == 0 || db.cfg.CountNoise == 0 {
		return exact
	}
	h := fnv.New64a()
	var seed [8]byte
	putUint64(seed[:], db.cfg.NoiseSeed)
	h.Write(seed[:])
	h.Write([]byte(q.Key()))                     // cached canonical key: no per-query rebuild
	u := float64(h.Sum64()>>11) / float64(1<<53) // uniform [0,1)
	factor := 1 + db.cfg.CountNoise*(2*u-1)
	est := int(math.Round(float64(exact) * factor))
	if est < 1 {
		est = 1
	}
	return est
}

// Tuple returns tuple id by value (ground-truth access for experiments).
func (db *DB) Tuple(id int) Tuple {
	return db.tuples[id].Clone()
}

// RankOrder returns all tuple IDs in global rank order (best first) — a
// ground-truth accessor used by the exact walk-distribution analyzer,
// never by samplers.
func (db *DB) RankOrder() []int {
	out := make([]int, len(db.byRank))
	for i, id := range db.byRank {
		out[i] = int(id)
	}
	return out
}

// ValsByRank returns each tuple's value vector, ordered by rank (row i is
// the i-th ranked tuple). Ground truth for the exact analyzer; the rows
// alias internal storage and must not be mutated.
func (db *DB) ValsByRank() ([][]int, []int) {
	vals := make([][]int, len(db.byRank))
	ids := make([]int, len(db.byRank))
	for i, id := range db.byRank {
		vals[i] = db.tuples[id].Vals
		ids[i] = int(id)
	}
	return vals, ids
}

// TrueMarginal returns the exact distribution of attribute attr over the
// whole database as counts per value index — the ground truth the demo's
// Figure 4 histograms are validated against.
func (db *DB) TrueMarginal(attr int) []int {
	counts := make([]int, db.schema.DomainSize(attr))
	for i := range db.tuples {
		counts[db.tuples[i].Vals[attr]]++
	}
	return counts
}

// TrueAggregate computes COUNT, SUM and AVG of numeric attribute attr over
// tuples matching q, bypassing the interface. When attr is negative only
// COUNT is meaningful and SUM/AVG are zero.
func (db *DB) TrueAggregate(q Query, attr int) (count int, sum, avg float64) {
	for i := range db.tuples {
		t := &db.tuples[i]
		if !q.Matches(t.Vals) {
			continue
		}
		count++
		if attr >= 0 {
			if v, ok := t.Num(attr); ok {
				sum += v
			}
		}
	}
	if count > 0 {
		avg = sum / float64(count)
	}
	return count, sum, avg
}
