package history

import "sync"

// shard is one hash partition of the entry map plus its two CLOCK
// eviction rings. Entries are keyed by their query's 64-bit signature
// hash; the (vanishingly rare) queries whose signatures collide share a
// slot as a short linked chain, and every probe verifies the full
// canonical key, so a collision costs a pointer hop, never a wrong answer.
// Every resident entry sits in exactly one ring, the one entry.ring names.
type shard struct {
	mu      sync.RWMutex
	entries map[uint64]*entry
	n       int   // resident entries, chains included (occupancy in O(1))
	bytes   int64 // charged bytes of the resident entries
	rings   [2]clockRing
}

// clockRing is one CLOCK ring: its entries, and the position the clock
// hand inspects next.
type clockRing struct {
	es   []*entry
	hand int
}

// get returns the entry with the given signature, walking the collision
// chain and verifying the full key. The caller holds sh.mu. The chain
// discipline mirrors queryexec's findCall/removeCall (internal/queryexec/
// exec.go) — a change to either unlink path likely applies to both; each
// has its own collision-chain test pinning the surgery.
func (sh *shard) get(hash uint64, key string) *entry {
	for e := sh.entries[hash]; e != nil; e = e.next {
		if e.q.Key() == key {
			return e
		}
	}
	return nil
}

// getBytes is get with the key in a scratch buffer — the []byte→string
// conversion in the comparison does not allocate.
func (sh *shard) getBytes(hash uint64, key []byte) *entry {
	for e := sh.entries[hash]; e != nil; e = e.next {
		if e.q.Key() == string(key) {
			return e
		}
	}
	return nil
}

// put inserts e at the head of its hash slot, unlinking and returning any
// existing entry with the same full key. The caller holds sh.mu for
// writing.
func (sh *shard) put(e *entry) (old *entry) {
	head := sh.entries[e.hash]
	var prev *entry
	for cur := head; cur != nil; cur = cur.next {
		if cur.q.Key() == e.q.Key() {
			old = cur
			if prev == nil {
				head = cur.next
			} else {
				prev.next = cur.next
			}
			cur.next = nil
			break
		}
		prev = cur
	}
	e.next = head
	sh.entries[e.hash] = e
	if old == nil {
		sh.n++
	}
	return old
}

// detach unlinks e from its hash chain. The caller holds sh.mu; e must be
// resident.
func (sh *shard) detach(e *entry) {
	sh.n--
	head := sh.entries[e.hash]
	if head == e {
		if e.next == nil {
			delete(sh.entries, e.hash)
		} else {
			sh.entries[e.hash] = e.next
		}
		e.next = nil
		return
	}
	for cur := head; cur != nil; cur = cur.next {
		if cur.next == e {
			cur.next = e.next
			e.next = nil
			return
		}
	}
}

// size returns the shard's resident entry count, chains included. The
// caller holds sh.mu. O(1): occupancy reporting (metrics scrapes, Len)
// must not scan chains under the lock writers need.
func (sh *shard) size() int { return sh.n }

// link adds a resident entry to its eviction ring and its charge to the
// shard's bytes; the caller holds sh.mu.
func (sh *shard) link(e *entry) {
	r := &sh.rings[e.ring()]
	e.slot = len(r.es)
	r.es = append(r.es, e)
	sh.bytes += e.charge()
}

// unlink removes an entry from its eviction ring (swap-with-last) and its
// charge from the shard's bytes; the caller holds sh.mu.
func (sh *shard) unlink(e *entry) {
	r := &sh.rings[e.ring()]
	last := len(r.es) - 1
	moved := r.es[last]
	r.es[e.slot] = moved
	moved.slot = e.slot
	r.es[last] = nil
	r.es = r.es[:last]
	e.slot = -1
	sh.bytes -= e.charge()
}

// evictOne runs the CLOCK hand over one ring: recently-touched entries
// get their reference bit cleared and a second chance; the first entry
// found with a clear bit is evicted. Returns nil when the ring is empty.
func (sh *shard) evictOne(ring int) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := &sh.rings[ring]
	n := len(r.es)
	if n == 0 {
		return nil
	}
	// Two laps suffice when the bits are quiescent: the first lap clears
	// every bit the hand passes. Concurrent touches can keep re-setting
	// bits, so fall back to evicting at the hand rather than spinning.
	for i := 0; i < 2*n; i++ {
		if r.hand >= len(r.es) {
			r.hand = 0
		}
		e := r.es[r.hand]
		if e.ref.CompareAndSwap(true, false) {
			r.hand++
			continue
		}
		sh.remove(e)
		return e
	}
	if r.hand >= len(r.es) {
		r.hand = 0
	}
	e := r.es[r.hand]
	sh.remove(e)
	return e
}

// remove deletes an entry from both its ring and the map; the caller
// holds sh.mu.
func (sh *shard) remove(e *entry) {
	sh.unlink(e)
	sh.detach(e)
}
