package formclient

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"hdsampler/internal/hiddendb"
	"hdsampler/internal/webform"
)

// randomSchema builds an arbitrary valid schema whose labels avoid shapes
// that would legitimately change kind under discovery (numeric-range
// lookalikes, false/true pairs). Numeric bounds may be negative, and at
// the 1e-6 scale they render in exponent form, so range labels carry
// dashes of their own ("-20--5", "-2e-05-3e-05").
func randomSchema(rng *rand.Rand) *hiddendb.Schema {
	m := 1 + rng.Intn(6)
	attrs := make([]hiddendb.Attribute, m)
	for i := range attrs {
		name := fmt.Sprintf("attr%d", i)
		switch rng.Intn(3) {
		case 0:
			attrs[i] = hiddendb.BoolAttr(name)
		case 1:
			d := 2 + rng.Intn(6)
			values := make([]string, d)
			for j := range values {
				values[j] = fmt.Sprintf("val%d_%c", j, 'a'+byte(rng.Intn(26)))
			}
			attrs[i] = hiddendb.CatAttr(name, values...)
		default:
			nCuts := 3 + rng.Intn(4)
			cuts := make([]float64, nCuts)
			scale := 1.0
			if rng.Intn(2) == 0 {
				scale = 1e-6
			}
			cur := float64(rng.Intn(200) - 150)
			for j := range cuts {
				cuts[j] = cur * scale
				cur += float64(1 + rng.Intn(5000))
			}
			attrs[i] = hiddendb.NumAttr(name, cuts...)
		}
	}
	return hiddendb.MustSchema("roundtrip", attrs...)
}

// randomTuples fills a schema with arbitrary valid rows, with numeric
// payloads placed inside their buckets.
func randomTuples(rng *rand.Rand, s *hiddendb.Schema, n int) []hiddendb.Tuple {
	tuples := make([]hiddendb.Tuple, n)
	for i := range tuples {
		vals := make([]int, s.NumAttrs())
		var nums []float64
		for a := range vals {
			vals[a] = rng.Intn(s.DomainSize(a))
		}
		for a := range s.Attrs {
			if s.Attrs[a].Kind != hiddendb.KindNumeric {
				continue
			}
			if nums == nil {
				nums = make([]float64, s.NumAttrs())
				for j := range nums {
					nums[j] = math.NaN()
				}
			}
			b := s.Attrs[a].Buckets[vals[a]]
			// The site renders payloads in their shortest exact decimal
			// form, so any value inside the bucket reads back into it.
			nums[a] = float64(int64(b.Lo))
			if nums[a] < b.Lo || nums[a] >= b.Hi {
				nums[a] = b.Lo
			}
		}
		tuples[i] = hiddendb.Tuple{Vals: vals, Nums: nums}
	}
	return tuples
}

// Property: for arbitrary schemas, HTML discovery reconstructs the exact
// attribute structure and scraped query answers match direct execution.
func TestHTTPDiscoveryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := randomSchema(rng)
		tuples := randomTuples(rng, schema, 10+rng.Intn(80))
		k := 1 + rng.Intn(20)
		db, err := hiddendb.New(schema, tuples, nil, hiddendb.Config{K: k, CountMode: hiddendb.CountExact})
		if err != nil {
			return false
		}
		srv := httptest.NewServer(webform.NewServer(db, webform.Options{}))
		defer srv.Close()
		conn := NewHTTP(srv.URL, HTTPOptions{Client: srv.Client()})
		// Rows wanted, so overflow answers carry their top-k as well.
		ctx := WantRows(context.Background())
		got, err := conn.Schema(ctx)
		if err != nil {
			t.Logf("seed %d: discovery failed: %v", seed, err)
			return false
		}
		if !got.Equal(schema) {
			t.Logf("seed %d: discovered schema differs", seed)
			return false
		}
		// Spot-check scraped answers against direct execution.
		for trial := 0; trial < 5; trial++ {
			q := hiddendb.EmptyQuery()
			for a := 0; a < schema.NumAttrs(); a++ {
				if rng.Intn(2) == 0 {
					q = q.With(a, rng.Intn(schema.DomainSize(a)))
				}
			}
			want, err := db.Execute(q)
			if err != nil {
				return false
			}
			res, err := conn.Execute(ctx, q)
			if err != nil {
				t.Logf("seed %d: execute failed: %v", seed, err)
				return false
			}
			if res.Overflow != want.Overflow || res.Count != want.Count || len(res.Tuples) != len(want.Tuples) {
				t.Logf("seed %d: result mismatch on %v", seed, q)
				return false
			}
			for i := range want.Tuples {
				if res.Tuples[i].ID != want.Tuples[i].ID {
					return false
				}
				for a := range want.Tuples[i].Vals {
					if res.Tuples[i].Vals[a] != want.Tuples[i].Vals[a] {
						t.Logf("seed %d: value mismatch row %d attr %d", seed, i, a)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
