package hiddendb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Predicate is one equality constraint "attribute == value", both sides by
// index into the schema.
type Predicate struct {
	Attr  int
	Value int
}

// Query is a conjunction of equality predicates, the only query shape a
// conjunctive web form interface supports. Predicates are kept sorted by
// attribute index with at most one predicate per attribute, which gives
// every query a unique canonical form.
//
// A query carries its canonical signature — the Key string and a 64-bit
// Hash — computed once at construction, so the history cache and the
// execution layer key their maps without rebuilding strings per lookup.
// Queries are immutable; the zero value is the empty (unconstrained)
// query.
type Query struct {
	preds []Predicate
	key   string
	hash  uint64
}

// FNV-1a parameters for the signature hash. The hash folds in the raw
// attribute/value integers (not the key bytes), so scratch signatures can
// be accumulated predicate-by-predicate without rendering digits.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// hashPred folds one predicate into a running signature hash. Callers
// seeding a scratch hash start from fnv64Offset (see AppendKeyWithout).
func hashPred(h uint64, p Predicate) uint64 {
	h ^= uint64(uint32(p.Attr))
	h *= fnv64Prime
	h ^= uint64(uint32(p.Value))
	h *= fnv64Prime
	return h
}

// intLen returns the rendered decimal width of x.
func intLen(x int) int {
	n := 1
	if x < 0 {
		n++
		x = -x
	}
	for x >= 10 {
		x /= 10
		n++
	}
	return n
}

// finalize computes the canonical signature from the (sorted, deduplicated)
// predicate list. The empty query's signature is ("", 0), matching the
// zero-value Query so literal Query{} values stay canonical.
func (q *Query) finalize() {
	if len(q.preds) == 0 {
		q.key, q.hash = "", 0
		return
	}
	size := len(q.preds) * 2 // '=' per predicate, '&' separators plus one spare
	for _, p := range q.preds {
		size += intLen(p.Attr) + intLen(p.Value)
	}
	var b strings.Builder
	b.Grow(size)
	var tmp [20]byte
	h := fnv64Offset
	for i, p := range q.preds {
		if i > 0 {
			b.WriteByte('&')
		}
		b.Write(strconv.AppendInt(tmp[:0], int64(p.Attr), 10))
		b.WriteByte('=')
		b.Write(strconv.AppendInt(tmp[:0], int64(p.Value), 10))
		h = hashPred(h, p)
	}
	q.key = b.String()
	q.hash = h
}

// NewQuery builds a query from predicates. It returns an error when an
// attribute appears twice; predicate order does not matter.
func NewQuery(preds ...Predicate) (Query, error) {
	q := Query{preds: append([]Predicate(nil), preds...)}
	sort.Slice(q.preds, func(i, j int) bool { return q.preds[i].Attr < q.preds[j].Attr })
	for i := 1; i < len(q.preds); i++ {
		if q.preds[i].Attr == q.preds[i-1].Attr {
			return Query{}, fmt.Errorf("hiddendb: duplicate predicate on attribute %d", q.preds[i].Attr)
		}
	}
	q.finalize()
	return q, nil
}

// MustQuery is NewQuery that panics on error.
func MustQuery(preds ...Predicate) Query {
	q, err := NewQuery(preds...)
	if err != nil {
		panic(err)
	}
	return q
}

// QueryFromSorted builds a query from predicates already in canonical
// order (strictly ascending attribute indexes). The slice is copied, so
// callers may keep appending to a reused scratch buffer — the walker's
// per-step construction path. It returns an error when the order is not
// strictly ascending.
func QueryFromSorted(preds []Predicate) (Query, error) {
	for i := 1; i < len(preds); i++ {
		if preds[i].Attr <= preds[i-1].Attr {
			return Query{}, fmt.Errorf("hiddendb: predicates not in strict canonical order at index %d", i)
		}
	}
	q := Query{preds: append([]Predicate(nil), preds...)}
	q.finalize()
	return q, nil
}

// EmptyQuery returns the unconstrained query (SELECT *).
func EmptyQuery() Query { return Query{} }

// Len returns the number of predicates.
func (q Query) Len() int { return len(q.preds) }

// Pred returns the i-th predicate in canonical order, without copying the
// predicate list. Use with Len for zero-allocation iteration.
func (q Query) Pred(i int) Predicate { return q.preds[i] }

// Preds returns a copy of the predicate list in canonical order. Hot paths
// should iterate via Len/Pred instead of paying for the copy.
func (q Query) Preds() []Predicate { return append([]Predicate(nil), q.preds...) }

// Value returns the value constrained for attribute attr and whether the
// query constrains it at all.
func (q Query) Value(attr int) (int, bool) {
	i := sort.Search(len(q.preds), func(i int) bool { return q.preds[i].Attr >= attr })
	if i < len(q.preds) && q.preds[i].Attr == attr {
		return q.preds[i].Value, true
	}
	return 0, false
}

// HasAttr reports whether attr is constrained.
func (q Query) HasAttr(attr int) bool {
	_, ok := q.Value(attr)
	return ok
}

// With returns a new query extended by attr == value. It panics if attr is
// already constrained: the random walk only ever lengthens a query with
// fresh attributes, so a duplicate indicates a programming error.
func (q Query) With(attr, value int) Query {
	if q.HasAttr(attr) {
		panic(fmt.Sprintf("hiddendb: query already constrains attribute %d", attr))
	}
	np := make([]Predicate, 0, len(q.preds)+1)
	inserted := false
	for _, p := range q.preds {
		if !inserted && attr < p.Attr {
			np = append(np, Predicate{attr, value})
			inserted = true
		}
		np = append(np, p)
	}
	if !inserted {
		np = append(np, Predicate{attr, value})
	}
	nq := Query{preds: np}
	nq.finalize()
	return nq
}

// Without returns a copy of the query with the predicate on attr removed.
// Removing an unconstrained attribute is a no-op.
func (q Query) Without(attr int) Query {
	if !q.HasAttr(attr) {
		return q
	}
	np := make([]Predicate, 0, len(q.preds)-1)
	for _, p := range q.preds {
		if p.Attr != attr {
			np = append(np, p)
		}
	}
	nq := Query{preds: np}
	nq.finalize()
	return nq
}

// Matches reports whether tuple values vals satisfy every predicate.
func (q Query) Matches(vals []int) bool {
	for _, p := range q.preds {
		if p.Attr >= len(vals) || vals[p.Attr] != p.Value {
			return false
		}
	}
	return true
}

// Contains reports whether q's predicate set is a subset of o's, i.e. every
// tuple matching o also matches q (q is an ancestor of o in the query
// tree). Every query contains itself.
func (q Query) Contains(o Query) bool {
	if len(q.preds) > len(o.preds) {
		return false
	}
	for _, p := range q.preds {
		v, ok := o.Value(p.Attr)
		if !ok || v != p.Value {
			return false
		}
	}
	return true
}

// Key returns the canonical string form "a=v&a=v&..." with attributes in
// increasing order: equal queries always produce equal keys, which the
// history cache uses for memoization. The key is computed once at
// construction; Key itself is O(1) and allocation-free.
func (q Query) Key() string { return q.key }

// Hash returns the query's 64-bit FNV-1a signature hash, computed once at
// construction. Equal queries always hash equally; the history cache and
// execution layer shard and key their maps on it, verifying the full Key
// on the (vanishingly rare) collision.
func (q Query) Hash() uint64 { return q.hash }

// AppendKeyWithout appends to dst the canonical key of q with the
// predicate on attr removed, returning the extended buffer and the removed
// query's signature hash. It lets the history cache probe a parent query's
// cache slot without allocating a Query (dst is a reusable scratch
// buffer). When attr is unconstrained the result equals q's own signature.
func (q Query) AppendKeyWithout(dst []byte, attr int) ([]byte, uint64) {
	h := fnv64Offset
	n := 0
	for _, p := range q.preds {
		if p.Attr == attr {
			continue
		}
		if n > 0 {
			dst = append(dst, '&')
		}
		dst = strconv.AppendInt(dst, int64(p.Attr), 10)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, int64(p.Value), 10)
		h = hashPred(h, p)
		n++
	}
	if n == 0 {
		return dst, 0
	}
	return dst, h
}

// AppendKeyReplace appends to dst the canonical key of q with attr's value
// replaced by value, returning the extended buffer and the replaced
// query's signature hash — the sibling-probe companion of
// AppendKeyWithout. attr must already be constrained by q; replacing an
// unconstrained attribute panics, as that would silently change the
// query's shape.
func (q Query) AppendKeyReplace(dst []byte, attr, value int) ([]byte, uint64) {
	if !q.HasAttr(attr) {
		panic(fmt.Sprintf("hiddendb: AppendKeyReplace of unconstrained attribute %d", attr))
	}
	h := fnv64Offset
	for i, p := range q.preds {
		if p.Attr == attr {
			p.Value = value
		}
		if i > 0 {
			dst = append(dst, '&')
		}
		dst = strconv.AppendInt(dst, int64(p.Attr), 10)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, int64(p.Value), 10)
		h = hashPred(h, p)
	}
	return dst, h
}

// ParseQueryKey parses a canonical key back into a Query; it is the inverse
// of Key and validates attribute/value bounds against the schema.
func ParseQueryKey(s *Schema, key string) (Query, error) {
	if key == "" {
		return EmptyQuery(), nil
	}
	parts := strings.Split(key, "&")
	preds := make([]Predicate, 0, len(parts))
	for _, part := range parts {
		av := strings.SplitN(part, "=", 2)
		if len(av) != 2 {
			return Query{}, fmt.Errorf("hiddendb: malformed query key part %q", part)
		}
		attr, err := strconv.Atoi(av[0])
		if err != nil {
			return Query{}, fmt.Errorf("hiddendb: bad attribute in key part %q: %v", part, err)
		}
		val, err := strconv.Atoi(av[1])
		if err != nil {
			return Query{}, fmt.Errorf("hiddendb: bad value in key part %q: %v", part, err)
		}
		preds = append(preds, Predicate{attr, val})
	}
	q, err := NewQuery(preds...)
	if err != nil {
		return Query{}, err
	}
	if err := q.ValidateAgainst(s); err != nil {
		return Query{}, err
	}
	return q, nil
}

// ValidateAgainst checks that every predicate references a real attribute
// and an in-domain value of the schema.
func (q Query) ValidateAgainst(s *Schema) error {
	for _, p := range q.preds {
		if p.Attr < 0 || p.Attr >= len(s.Attrs) {
			return fmt.Errorf("hiddendb: predicate attribute %d out of range [0,%d)", p.Attr, len(s.Attrs))
		}
		if p.Value < 0 || p.Value >= len(s.Attrs[p.Attr].Values) {
			return fmt.Errorf("hiddendb: predicate value %d out of range for attribute %q (domain %d)",
				p.Value, s.Attrs[p.Attr].Name, len(s.Attrs[p.Attr].Values))
		}
	}
	return nil
}

// String renders the query with schema-free indices, e.g. "{2=1, 5=0}".
func (q Query) String() string {
	if len(q.preds) == 0 {
		return "{*}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range q.preds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d=%d", p.Attr, p.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Describe renders the query with attribute and value labels from the
// schema, e.g. "make='toyota' AND color='red'"; used by logs and the UI.
func (q Query) Describe(s *Schema) string {
	if len(q.preds) == 0 {
		return "TRUE"
	}
	var b strings.Builder
	for i, p := range q.preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		if p.Attr < len(s.Attrs) && p.Value < len(s.Attrs[p.Attr].Values) {
			fmt.Fprintf(&b, "%s='%s'", s.Attrs[p.Attr].Name, s.Attrs[p.Attr].Values[p.Value])
		} else {
			fmt.Fprintf(&b, "%d=%d", p.Attr, p.Value)
		}
	}
	return b.String()
}
