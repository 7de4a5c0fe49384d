package queryexec

import "testing"

// TestCallCollisionChainFullKeyVerify drives the single-flight call map's
// collision handling directly: calls whose signature hashes collide must
// stay distinguishable by full canonical key, and removal must never
// unlink a bystander flight.
func TestCallCollisionChainFullKeyVerify(t *testing.T) {
	calls := make(map[uint64]*call)
	const h = uint64(0x5eed)
	insert := func(key string) *call {
		c := &call{key: key, done: make(chan struct{})}
		c.next = calls[h]
		calls[h] = c
		return c
	}
	c1 := insert("0=1")
	c2 := insert("3=2")
	c3 := insert("7=0")
	if len(calls) != 1 {
		t.Fatalf("colliding calls occupy %d slots, want 1", len(calls))
	}
	for _, c := range []*call{c1, c2, c3} {
		if got := findCall(calls, h, c.key, false); got != c {
			t.Fatalf("findCall(%q) = %v, want its own call", c.key, got)
		}
	}
	if got := findCall(calls, h, "9=9", false); got != nil {
		t.Fatalf("findCall of absent key = %q", got.key)
	}
	if got := findCall(calls, h+1, c1.key, false); got != nil {
		t.Fatalf("findCall under wrong hash = %q", got.key)
	}

	removeCall(calls, h, c2) // middle
	if findCall(calls, h, c2.key, false) != nil || findCall(calls, h, c1.key, false) != c1 || findCall(calls, h, c3.key, false) != c3 {
		t.Fatal("removeCall(middle) corrupted the chain")
	}
	removeCall(calls, h, c3) // head
	if findCall(calls, h, c3.key, false) != nil || findCall(calls, h, c1.key, false) != c1 {
		t.Fatal("removeCall(head) corrupted the chain")
	}
	removeCall(calls, h, c1) // last
	if len(calls) != 0 {
		t.Fatalf("slot not reclaimed after final removal: %d", len(calls))
	}
}
