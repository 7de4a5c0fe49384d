package history

import (
	"context"

	"hdsampler/internal/hiddendb"
)

// Snapshot is a point-in-time dump of a cache's entries — the portable
// form internal/store serializes so a daemon restart can warm-start the
// per-host caches instead of re-paying their query bills.
type Snapshot struct {
	Entries []SnapshotEntry
}

// SnapshotEntry is one cached answer in portable form. The canonical key
// is re-parsed against the live schema on restore, so snapshots survive
// restarts but are dropped entry-by-entry on schema drift.
type SnapshotEntry struct {
	Key      string
	Overflow bool
	Count    int
	Tuples   []hiddendb.Tuple
}

// Dump snapshots every cached entry. Tuples are deep-copied, so the
// snapshot stays valid however the cache evolves afterwards.
func (c *Cache) Dump() *Snapshot {
	snap := &Snapshot{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			for ; e != nil; e = e.next { // walk signature-collision chains
				se := SnapshotEntry{Key: e.q.Key(), Overflow: e.overflow, Count: e.count}
				if len(e.tuples) > 0 {
					se.Tuples = make([]hiddendb.Tuple, len(e.tuples))
					for j := range e.tuples {
						se.Tuples[j] = e.tuples[j].Clone()
					}
				}
				snap.Entries = append(snap.Entries, se)
			}
		}
		sh.mu.RUnlock()
	}
	return snap
}

// Restore warm-starts the cache from a snapshot, returning how many
// entries were adopted. Entries that no longer fit the connector's current
// schema are skipped (the target may have changed): a key that does not
// parse, or a row of the wrong arity, with an out-of-domain value, or not
// matching its key. Hit/eviction counters are untouched, and MaxEntries
// still applies.
//
// Restore takes ownership of the snapshot's tuple slices: adopted entries
// alias them (entries are immutable, so no defensive copy is paid), and
// the caller must not mutate or reuse snap after the call. Snapshots
// decoded from disk — the warm-start path — satisfy this naturally; to
// keep a snapshot writable, Dump a fresh one (Dump deep-copies).
func (c *Cache) Restore(ctx context.Context, snap *Snapshot) (int, error) {
	schema, err := c.Schema(ctx)
	if err != nil {
		return 0, err
	}
	adopted := 0
	for _, se := range snap.Entries {
		q, err := hiddendb.ParseQueryKey(schema, se.Key)
		if err != nil || !rowsFit(schema, q, se.Tuples) {
			continue
		}
		res := &hiddendb.Result{Overflow: se.Overflow, Count: se.Count, Tuples: se.Tuples}
		keepRows := !se.Overflow || len(se.Tuples) > 0
		c.store(q, res, keepRows)
		adopted++
	}
	return adopted, nil
}

// rowsFit reports whether every row could be part of q's answer under
// schema: schema arity, in-domain values, and matching q. The root key
// parses under any schema, so a stale entry is caught only by its rows.
func rowsFit(schema *hiddendb.Schema, q hiddendb.Query, rows []hiddendb.Tuple) bool {
	for i := range rows {
		vals := rows[i].Vals
		if len(vals) != schema.NumAttrs() || !q.Matches(vals) {
			return false
		}
		for a, v := range vals {
			if v < 0 || v >= schema.DomainSize(a) {
				return false
			}
		}
	}
	return true
}
