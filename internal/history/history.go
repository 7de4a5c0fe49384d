// Package history implements the query-history optimization HDSampler
// adopts from "Leveraging count information in sampling hidden databases"
// (ICDE 2009, reference [2] of the demo paper): a caching connector that
// never pays for a query whose answer was already observed or can be
// logically inferred from earlier answers.
//
// Inference rules, applied in order:
//
//  1. Exact repeat — the same canonical query was answered before.
//  2. Valid ancestor — some ancestor query (a predicate subset) returned a
//     complete (non-overflowing) answer; the current query's answer is that
//     result filtered locally, and the exact count is pinned to the number
//     of surviving rows (a complete answer shows every match).
//  3. Empty ancestor — some ancestor returned zero tuples; every
//     specialization is empty.
//  4. Sibling counts (only when counts are trusted/exact) — the count of
//     q = parent ∧ (a=v) equals count(parent) minus the counts of the
//     other values of a when all are known; when that pins the answer to
//     empty, no query is needed. (A pinned positive count still needs a
//     real query for its rows, so it is not fabricated.)
//
// The cache is safe for heavy concurrent use — the daemon shares one per
// target host across every job's worker pool — and is built not to
// serialize those workers, nor to allocate on its hottest paths:
//
//   - Entries live in hash shards keyed by the query's precomputed 64-bit
//     signature (hiddendb.Query.Hash): shard selection and map probes cost
//     no hashing or string building, and the rare signature collision is
//     resolved by a full canonical-key comparison along a short chain.
//     Each shard is guarded by its own RWMutex, so parallel exact-repeat
//     hits (rule 1, the hottest path) proceed without contention. Entries
//     are immutable once stored, and cache hits share an entry's tuple
//     rows rather than cloning them (Results are read-only by convention).
//   - Ancestor lookup (rules 2–3) goes through a subset trie over the
//     canonical predicate order instead of enumerating all 2^d predicate
//     subsets: the walk visits only trie paths that are subsets of the
//     query, so a deep query costs O(d·matches), not O(2^d) map probes.
//   - Sibling-count probes (rule 4) render scratch signatures into a
//     pooled buffer instead of allocating a Query per probed parent and
//     sibling.
//   - Statistics are atomic counters, readable from any goroutine.
//
// Overflow rows are kept exactly when they were wanted. A generator marks
// the queries whose overflow rows it reads with formclient.WantRows — the
// drill-down's last level, where the query cannot be narrowed further
// (for an attribute-scoped walk, the last scoped attribute). Such an
// answer is stored with its rows: it is the only window onto the cell's
// visible top-k. Every other overflow answer is stored as its flag and
// count alone, since storing k rows per overflow would dominate memory
// and nobody reads them. A lookup that wants rows and finds a row-less
// overflow entry counts as a miss, and the fresh answer replaces the
// entry.
//
// When MaxBytes caps the cache, every entry is charged its resident bytes
// once, when it is stored (see entry.charge), and CLOCK (second-chance)
// eviction keeps the charged total within the cap. Each shard keeps two
// rings, and victims come from the row-bearing ring — complete answers
// with rows and overflow answers holding wanted rows — while any such
// entry is resident; row-less entries (overflow flags and empty answers)
// go only after those. A row-less entry costs a few hundred bytes and
// steers every walk that passes it, while a row-bearing one costs up to k
// rows and serves the few walks that end in its cell, so spending the
// budget on row-less entries first saves the most wire calls per byte
// (the cost-per-byte argument of GreedyDual-Size, Cao & Irani 1997). An
// evicted overflow answer that held wanted rows is fetched again by the
// next lookup that wants them.
package history

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/telemetry"
)

// Options tunes the cache.
type Options struct {
	// TrustCounts enables count-based inference (rule 4). Enable only when
	// the interface reports exact counts; HDSampler's default against
	// Google Base was to distrust its approximate estimates.
	TrustCounts bool
	// MaxBytes caps the charged bytes of the resident entries; 0 means
	// unlimited. When a store pushes the total past the cap, CLOCK
	// eviction reclaims least-recently-touched entries, row-bearing ones
	// first, until it fits again.
	MaxBytes int64
	// MaxInferDepth bounds the predicate count up to which ancestor
	// inference is attempted. The subset trie makes deep inference cheap,
	// so the default is 24 (it exists to bound pathological queries, not
	// to protect an exponential scan as it once did).
	MaxInferDepth int
	// Shards is the number of entry-map shards (rounded up to a power of
	// two, default 64). More shards admit more concurrent writers; reads
	// already run concurrently within a shard.
	Shards int
	// Lookup, when set, observes the cache's share of each Execute on
	// traced walks only — the untraced hot path reads no clocks, keeping
	// the rule-1 hit allocation-free and timer-free.
	Lookup *telemetry.Histogram
}

// Stats reports the cache's effect.
type Stats struct {
	// Issued is the number of queries forwarded to the wrapped connector.
	Issued int64
	// ExactHits counts rule-1 answers, Inferred counts rules 2-4.
	ExactHits int64
	Inferred  int64
	// Evictions counts entries reclaimed to keep the cache within MaxBytes.
	Evictions int64
}

// Saved is the total number of interface queries avoided.
func (s Stats) Saved() int64 { return s.ExactHits + s.Inferred }

// ShardStat describes one shard's occupancy, for balance monitoring.
type ShardStat struct {
	// Entries is the shard's entry count, Bytes their charged bytes.
	Entries int
	Bytes   int64
}

// Cache is a formclient.Conn decorator adding memoization and inference.
// It is safe for concurrent use by any number of goroutines.
type Cache struct {
	inner formclient.Conn
	opts  Options

	schemaMu sync.Mutex // serializes the initial schema fetch
	schema   atomic.Pointer[hiddendb.Schema]

	shards []shard
	mask   uint64

	idx ancestorIndex

	issued    atomic.Int64
	exactHits atomic.Int64
	inferred  atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64 // charged bytes of every resident entry
	evictHand atomic.Uint64
}

// entry stores one observed or derived answer. An overflow entry keeps
// its tuples only when they were wanted. All fields except the CLOCK
// reference bit, the ring slot, and the collision-chain link are immutable
// after the entry is published (the mutable three change only under the
// shard lock), which is what lets readers use an entry after dropping it.
type entry struct {
	q        hiddendb.Query   // canonical query; carries cached Key and Hash
	hash     uint64           // q.Hash(), denormalized for chain bookkeeping
	next     *entry           // signature-collision chain within a shard slot
	count    int              // interface-reported count (CountAbsent if none)
	tuples   []hiddendb.Tuple // nil for row-less overflow entries; shared, read-only
	overflow bool
	indexed  bool        // complete answer: present in the ancestor trie
	ref      atomic.Bool // CLOCK reference bit, set on every touch
	slot     int         // position in its eviction ring; -1 when absent
}

// The resident-byte charge of an entry. Sizes come from the types
// themselves; the two bookkeeping figures are amortized heap measurements
// of walks like svc-html's (200k vehicles, k 100), and TestChargeMatchesHeap
// checks the whole charge against heap growth:
//   - slotBytes: the entry's shard map slot and its ring slot (~50 bytes
//     per entry at the load the map runs at);
//   - trieBytes: a complete answer's share of the ancestor trie, its
//     terminal node plus the nodes and child maps on its path (~390–410
//     bytes per complete answer, dropping the trie to measure).
const (
	entryBytes = int64(unsafe.Sizeof(entry{}))
	predBytes  = int64(unsafe.Sizeof(hiddendb.Predicate{}))
	tupleBytes = int64(unsafe.Sizeof(hiddendb.Tuple{}))
	valBytes   = int64(unsafe.Sizeof(int(0)))
	numBytes   = int64(unsafe.Sizeof(float64(0)))
	slotBytes  = 48
	trieBytes  = 384
)

// charge is the entry's resident bytes: the entry, its key and predicates,
// its slots, and its rows. Every row of an answer has the schema's width,
// so the first row prices them all and the charge costs O(1). Rows an
// inferred answer shares with its ancestor are charged to both.
func (e *entry) charge() int64 {
	b := entryBytes + int64(len(e.q.Key())) + int64(e.q.Len())*predBytes + slotBytes
	if e.indexed {
		b += trieBytes
	}
	if len(e.tuples) > 0 {
		row := tupleBytes + int64(len(e.tuples[0].Vals))*valBytes + int64(len(e.tuples[0].Nums))*numBytes
		b += int64(len(e.tuples)) * row
	}
	return b
}

// Eviction rings: an entry's ring is fixed by whether it holds rows.
const (
	ringRows  = iota // complete answers with rows, overflow answers with wanted rows
	ringFlags        // overflow flags and empty answers
)

// ring returns the eviction ring e belongs to.
func (e *entry) ring() int {
	if len(e.tuples) > 0 {
		return ringRows
	}
	return ringFlags
}

// keyScratch pools the buffers sibling-count probes render scratch
// signatures into.
var keyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// New wraps inner with a history cache.
func New(inner formclient.Conn, opts Options) *Cache {
	if opts.MaxInferDepth <= 0 {
		opts.MaxInferDepth = 24
	}
	n := opts.Shards
	if n <= 0 {
		n = 64
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache{
		inner:  inner,
		opts:   opts,
		shards: make([]shard, pow),
		mask:   uint64(pow - 1),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*entry)
	}
	return c
}

// shardFor maps a query signature hash onto its shard.
func (c *Cache) shardFor(hash uint64) *shard {
	return &c.shards[hash&c.mask]
}

// Schema implements formclient.Conn.
func (c *Cache) Schema(ctx context.Context) (*hiddendb.Schema, error) {
	if s := c.schema.Load(); s != nil {
		return s, nil
	}
	c.schemaMu.Lock()
	defer c.schemaMu.Unlock()
	if s := c.schema.Load(); s != nil {
		return s, nil
	}
	// hdsampler.NewStack, the only production builder of a cache, always
	// puts it directly over a queryexec.Executor — inner is never another
	// history.Cache, so this interface call cannot reenter schemaMu.
	s, err := c.inner.Schema(ctx)
	if err != nil {
		return nil, err
	}
	c.schema.Store(s)
	return s, nil
}

// Stats returns the inner connector's traffic statistics (so samplers keep
// observing real query costs through the decorator).
func (c *Cache) Stats() formclient.Stats { return c.inner.Stats() }

// CacheStats returns hit/inference/eviction counters.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Issued:    c.issued.Load(),
		ExactHits: c.exactHits.Load(),
		Inferred:  c.inferred.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Bytes returns the charged bytes of the resident entries.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		total += sh.size()
		sh.mu.RUnlock()
	}
	return total
}

// ShardStats snapshots per-shard occupancy, in shard order.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		out[i] = ShardStat{Entries: sh.size(), Bytes: sh.bytes}
		sh.mu.RUnlock()
	}
	return out
}

// lookupScratch probes a cache slot by a scratch-built signature (hash
// plus key bytes), touching the CLOCK bit on a hit. The entry is immutable,
// so using it after the lock is dropped is safe.
func (c *Cache) lookupScratch(hash uint64, key []byte) *entry {
	sh := c.shardFor(hash)
	sh.mu.RLock()
	e := sh.getBytes(hash, key)
	sh.mu.RUnlock()
	if e != nil {
		e.ref.Store(true)
	}
	return e
}

// Execute implements formclient.Conn.
func (c *Cache) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	schema, err := c.Schema(ctx)
	if err != nil {
		return nil, err
	}

	// Traced walks time the cache's share of the call; the untraced path
	// costs one ctx.Value miss and no clock reads.
	tr := telemetry.TraceFrom(ctx)
	var lookupStart time.Time
	if tr != nil {
		lookupStart = time.Now()
	}

	// Rule 1: exact repeat. Shared (read) lock only — parallel workers
	// replaying hot queries never serialize here — and the precomputed
	// signature means no hashing or string building on the hit path. A
	// caller wanting rows cannot use a row-less overflow entry.
	wanted := formclient.RowsWanted(ctx)
	sh := c.shardFor(q.Hash())
	sh.mu.RLock()
	e := sh.get(q.Hash(), q.Key())
	sh.mu.RUnlock()
	if e != nil && !(wanted && e.overflow && len(e.tuples) == 0) {
		e.ref.Store(true)
		c.exactHits.Add(1)
		if tr != nil {
			c.markLookup(tr, telemetry.CacheHit, lookupStart)
		}
		return e.result(), nil
	}

	if res, rule := c.infer(schema, q); res != nil {
		c.inferred.Add(1)
		if tr != nil {
			c.markLookup(tr, rule, lookupStart)
		}
		c.store(q, res, !res.Overflow)
		return res, nil
	}

	if tr != nil {
		// A miss: the lookup cost ends here; the wire cost lands on the
		// same span via the execution layer's own marks.
		c.markLookup(tr, telemetry.CacheMiss, lookupStart)
	}
	res, err := c.inner.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	// An overflow answer keeps its rows exactly when they were wanted: a
	// row-less replay would make them unreachable on cache hits.
	keepRows := !res.Overflow || wanted
	c.issued.Add(1)
	c.store(q, res, keepRows)
	return res, nil
}

// result materializes an entry as a Result. The rows are shared with the
// immutable entry, per the Result read-only convention — a rule-1 hit
// costs one allocation, not a deep copy of up to k tuples.
func (e *entry) result() *hiddendb.Result {
	return &hiddendb.Result{Overflow: e.overflow, Count: e.count, Tuples: e.tuples}
}

// store publishes an answer: the entry joins its shard (and, when it is a
// complete answer, the ancestor trie), then the MaxBytes cap is enforced.
// keepRows controls whether the visible rows are retained (always for
// complete answers, and for overflow answers whose rows were wanted).
// Retained rows are shared with the result, not cloned: entries and
// Results are both immutable by convention.
func (c *Cache) store(q hiddendb.Query, res *hiddendb.Result, keepRows bool) {
	e := &entry{
		q:        q,
		hash:     q.Hash(),
		overflow: res.Overflow,
		count:    res.Count,
		indexed:  !res.Overflow,
		slot:     -1,
	}
	if keepRows {
		e.tuples = res.Tuples
	}
	delta := e.charge()

	// Map and trie must change together under the shard lock: with the
	// trie updated outside it, two same-key stores can interleave so the
	// losing entry's removal deletes the winner's trie terminal (or
	// leaves a stale one). Lock order is always shard → trie; no path
	// acquires a shard lock while holding the trie lock.
	sh := c.shardFor(e.hash)
	sh.mu.Lock()
	old := sh.put(e)
	if old != nil {
		sh.unlink(old)
		delta -= old.charge()
	}
	sh.link(e)
	if e.indexed {
		c.idx.insert(e.q, e)
	}
	if old != nil && old.indexed {
		// No-op when the new entry already replaced it at the same trie
		// node; removes a stale terminal when the answer flipped to
		// overflow (interface drift).
		c.idx.remove(old.q, old)
	}
	sh.mu.Unlock()
	c.bytes.Add(delta)

	c.enforceCap()
}

// enforceCap evicts CLOCK victims until the charged bytes fit MaxBytes
// again. Each victim comes from the row-bearing rings while any shard has
// a row-bearing entry, and from the row-less rings after that; the
// starting shard rotates, so the shards take turns.
func (c *Cache) enforceCap() {
	max := c.opts.MaxBytes
	if max <= 0 {
		return
	}
	for c.bytes.Load() > max {
		victim := c.evictFrom(ringRows)
		if victim == nil {
			victim = c.evictFrom(ringFlags)
		}
		if victim == nil {
			return // nothing resident
		}
		c.bytes.Add(-victim.charge())
		c.evictions.Add(1)
		if victim.indexed {
			c.idx.remove(victim.q, victim)
		}
	}
}

// evictFrom evicts one entry of the given ring from the first shard,
// counting from the rotating hand, that has one.
func (c *Cache) evictFrom(ring int) *entry {
	start := int(c.evictHand.Add(1))
	for i := range c.shards {
		if v := c.shards[(start+i)&int(c.mask)].evictOne(ring); v != nil {
			return v
		}
	}
	return nil
}

// markLookup closes out a traced Execute's cache stage: the lookup
// latency feeds the per-host histogram and the walk trace's span.
func (c *Cache) markLookup(tr *telemetry.WalkTrace, o telemetry.CacheOutcome, start time.Time) {
	d := time.Since(start)
	c.opts.Lookup.Observe(d)
	tr.MarkCache(o, d)
}

// infer attempts rules 2-4 without holding any shard lock, reporting
// which rule answered for tracing. Returns nil when the answer cannot be
// derived.
func (c *Cache) infer(schema *hiddendb.Schema, q hiddendb.Query) (*hiddendb.Result, telemetry.CacheOutcome) {
	d := q.Len()
	if d == 0 || d > c.opts.MaxInferDepth {
		return nil, telemetry.CacheNone
	}
	// Rules 2/3: find the deepest complete ancestor in the subset trie
	// (deepest = fewest tuples to filter) and filter its rows locally.
	// Surviving rows are shared with the (immutable) ancestor entry.
	if anc := c.idx.bestAncestor(q); anc != nil {
		anc.ref.Store(true)
		res := &hiddendb.Result{}
		for i := range anc.tuples {
			if q.Matches(anc.tuples[i].Vals) {
				res.Tuples = append(res.Tuples, anc.tuples[i])
			}
		}
		// A complete ancestor shows every match, so filtering pins the
		// exact count whether or not the interface reported one.
		res.Count = len(res.Tuples)
		if len(anc.tuples) == 0 {
			return res, telemetry.CacheInferEmpty
		}
		return res, telemetry.CacheInferAncestor
	}
	if c.opts.TrustCounts {
		if res := c.inferFromSiblingCounts(schema, q); res != nil {
			return res, telemetry.CacheInferSibling
		}
	}
	return nil, telemetry.CacheNone
}

// inferFromSiblingCounts applies rule 4: for some predicate (a=v) of q,
// the parent (q without a) and every sibling value of a are cached with
// exact counts, pinning count(q). Only empty (count 0) and overflow
// (count > k, unknown rows) outcomes can be fabricated without rows; a
// pinned small positive count still needs a real query for its tuples, so
// we return nil then.
//
// Parent and sibling probes render scratch signatures (hash + key bytes)
// into a pooled buffer instead of materializing a Query per probe — a
// deep query over wide domains probes d·|dom| siblings, and building a
// predicate list and canonical key for each dominated this path's cost.
func (c *Cache) inferFromSiblingCounts(schema *hiddendb.Schema, q hiddendb.Query) *hiddendb.Result {
	bufp := keyScratch.Get().(*[]byte)
	defer keyScratch.Put(bufp)
	for i := 0; i < q.Len(); i++ {
		p := q.Pred(i)
		buf, ph := q.AppendKeyWithout((*bufp)[:0], p.Attr)
		*bufp = buf
		pe := c.lookupScratch(ph, buf)
		if pe == nil || pe.count == hiddendb.CountAbsent {
			continue
		}
		remaining := pe.count
		complete := true
		for v := 0; v < schema.DomainSize(p.Attr); v++ {
			if v == p.Value {
				continue
			}
			sbuf, sh := q.AppendKeyReplace((*bufp)[:0], p.Attr, v)
			*bufp = sbuf
			se := c.lookupScratch(sh, sbuf)
			if se == nil || se.count == hiddendb.CountAbsent {
				complete = false
				break
			}
			remaining -= se.count
		}
		if !complete {
			continue
		}
		if remaining <= 0 {
			return &hiddendb.Result{Count: 0}
		}
		// A pinned positive count only helps when it implies overflow;
		// infer conservatively via the parent's own overflow threshold:
		// we do not know k here, so only the empty case is safe.
	}
	return nil
}

var _ formclient.Conn = (*Cache)(nil)
